package main

import (
	"context"
	"sync"
	"testing"
)

// shortRun is a fixed-length stream over a small keyspace: the same
// inputs every time, so runs can be compared.
func shortRun(t *testing.T, name string) (spec, options) {
	t.Helper()
	sp, ok := findSpec(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	sp.seed = 7
	sp.keys = 400
	return sp, options{workers: 2, setups: 1, ops: 3000, windows: 10}
}

// staleGet serves one get of a key from before the worker's latest acked
// put to it.
type staleGet struct {
	kv
	mu     sync.Mutex
	writes map[string][][]byte
	fired  bool
}

func (s *staleGet) Put(ctx context.Context, key, val []byte) error {
	err := s.kv.Put(ctx, key, val)
	if err == nil {
		s.mu.Lock()
		s.writes[string(key)] = append(s.writes[string(key)], append([]byte(nil), val...))
		s.mu.Unlock()
	}
	return err
}

func (s *staleGet) Get(ctx context.Context, key []byte) ([]byte, bool, error) {
	s.mu.Lock()
	old := s.writes[string(key)]
	if !s.fired && len(old) >= 2 {
		s.fired = true
		s.mu.Unlock()
		return old[0], true, nil
	}
	s.mu.Unlock()
	return s.kv.Get(ctx, key)
}

// dropRow drops the third row of one scan.
type dropRow struct {
	kv
	fired bool
}

func (d *dropRow) Scan(ctx context.Context, start []byte, limit int, fn func(k, v []byte) bool) error {
	if d.fired {
		return d.kv.Scan(ctx, start, limit, fn)
	}
	row := 0
	return d.kv.Scan(ctx, start, limit, func(k, v []byte) bool {
		row++
		if row == 3 {
			d.fired = true
			return true
		}
		return fn(k, v)
	})
}

func TestCheckerCatchesWrongAnswers(t *testing.T) {
	faults := map[string]func(w int, db kv) kv{
		"stale get": func(w int, db kv) kv {
			if w != 0 {
				return db
			}
			return &staleGet{kv: db, writes: map[string][][]byte{}}
		},
		"dropped scan row": func(w int, db kv) kv {
			if w != 0 {
				return db
			}
			return &dropRow{kv: db}
		},
	}
	for _, sp := range specs {
		for fault, wrap := range faults {
			t.Run(sp.name+"/"+fault, func(t *testing.T) {
				sp, o := shortRun(t, sp.name)
				m, err := measure(sp, o, nil, wrap)
				if err != nil {
					t.Fatal(err)
				}
				if m.correct {
					t.Fatalf("the checker passed a run with a %s", fault)
				}
				t.Logf("caught: %s", m.violations)
			})
		}
	}
}

func TestTracingChangesNothing(t *testing.T) {
	// Each workload's own layers must show up in its traced run.
	own := map[string][]string{
		"engine-readmostly":   {"engine.self_us", "masstree.get_us", "masstree.put_us", "masstree.scan_us", "engine.queue_wait_p99_us"},
		"wire-scanmix":        {"engine.self_us", "masstree.scan_us", "wire.self_us", "wire.client_reads_per_op", "wire.server_writes_per_op", "wire.bytes_per_op"},
		"standby-updateheavy": {"masstree.put_us", "repl.commit_wait_us", "repl.acks_per_put", "repl.standby_apply_us", "tc.scan_self_us", "tc.dc_write_us", "ssd.log_writes_per_put", "ssd.log_write_us"},
	}
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			sp, o := shortRun(t, sp.name)
			plain, err := measure(sp, o, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := measure(sp, o, newTracer(o.workers), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !plain.correct || !traced.correct {
				t.Fatalf("checker: untraced %s; traced %s", plain.violations, traced.violations)
			}
			if plain.failed != 0 || traced.failed != 0 {
				t.Fatalf("failed ops: untraced %d, traced %d", plain.failed, traced.failed)
			}
			if plain.digest != traced.digest {
				t.Fatal("traced and untraced runs of the same stream left different final states")
			}
			for _, k := range own[sp.name] {
				if v, ok := traced.layer[k]; !ok || v.Value <= 0 {
					t.Errorf("%s = %v, want > 0", k, v.Value)
				}
			}
		})
	}
}

func TestValueCodec(t *testing.T) {
	v := make([]byte, valueSize)
	encodeValue(v, 42, 9, 1)
	k, seq, w, err := decodeValue(v)
	if err != nil || k != 42 || seq != 9 || w != 1 {
		t.Fatalf("decode = %d %d %d %v", k, seq, w, err)
	}
	v[50] ^= 1
	if _, _, _, err := decodeValue(v); err == nil {
		t.Fatal("a flipped bit passed the CRC")
	}
}

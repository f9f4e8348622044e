package obs_test

import (
	"context"
	"fmt"
	"testing"

	"costperf/internal/engine"
	"costperf/internal/masstree"
	"costperf/internal/obs"
)

// TestDisabledSpanPathAllocFree pins the core overhead contract: with no
// tracer installed (nil *Tracer), starting, annotating, and ending a span
// allocates nothing — instrumented hot paths cost a nil check.
func TestDisabledSpanPathAllocFree(t *testing.T) {
	var tr *obs.Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.Start(obs.OpGet)
		sp.Miss()
		sp.Bytes(64, 0)
		sp.End(nil)
	})
	if allocs != 0 {
		t.Fatalf("disabled span path allocates %v per op, want 0", allocs)
	}
}

// TestEnabledSpanPathAllocFree keeps the enabled path allocation-free too:
// spans are value types and every counter update is an atomic add.
func TestEnabledSpanPathAllocFree(t *testing.T) {
	tr := obs.NewTracer("bench")
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.Start(obs.OpGet)
		sp.End(nil)
	})
	if allocs != 0 {
		t.Fatalf("enabled span path allocates %v per op, want 0", allocs)
	}
}

// newEngineForBench builds an engine over a loaded masstree and returns
// it with the bare store it wraps.
func newEngineForBench(tb testing.TB, tr *obs.Tracer) (*engine.Engine, engine.Store) {
	tb.Helper()
	mt := masstree.New(nil)
	mt.SetObs(tr)
	for i := 0; i < 1024; i++ {
		k := []byte(fmt.Sprintf("key-%06d", i))
		mt.Put(k, []byte("value-payload-0123456789"))
	}
	store := engine.WrapMassTree(mt)
	e, err := engine.New(engine.Config{Store: store, Obs: tr})
	if err != nil {
		tb.Fatal(err)
	}
	return e, store
}

// TestEngineAddsNoAllocs pins the engine's fast path at zero allocations
// of its own: with tracing off and on, an engine Get, Put and Scan
// allocate exactly what the same call on the bare store does.
func TestEngineAddsNoAllocs(t *testing.T) {
	ctx := context.Background()
	key := []byte("key-000512")
	val := []byte("value-payload-9876543210")
	rows := 0
	visit := func(k, v []byte) bool { rows++; return true }
	for _, mode := range []struct {
		name string
		tr   *obs.Tracer
	}{
		{"obs-off", nil},
		{"obs-on", obs.NewTracer("allocs")},
	} {
		e, store := newEngineForBench(t, mode.tr)
		for _, op := range []struct {
			name        string
			engine, raw func()
		}{
			{"get",
				func() { e.Get(ctx, key) },
				func() { store.Get(ctx, key) }},
			{"put",
				func() { e.Put(ctx, key, val) },
				func() { store.Put(ctx, key, val) }},
			{"scan",
				func() { e.Scan(ctx, key, 10, visit) },
				func() { store.Scan(ctx, key, 10, visit) }},
		} {
			got := testing.AllocsPerRun(1000, op.engine)
			want := testing.AllocsPerRun(1000, op.raw)
			if got != want {
				t.Errorf("%s %s: engine allocates %v per op, bare store %v", mode.name, op.name, got, want)
			}
		}
	}
	if rows == 0 {
		t.Fatal("scans visited no rows")
	}
}

// BenchmarkEngineGet measures the front-end read path with tracing off
// (nil tracer) and on (engine + store spans, histograms, sliding window),
// so the observability overhead is visible in benchmark diffs.
func BenchmarkEngineGet(b *testing.B) {
	ctx := context.Background()
	key := []byte("key-000512")
	for _, mode := range []struct {
		name string
		tr   *obs.Tracer
	}{
		{"obs-off", nil},
		{"obs-on", obs.NewTracer("bench")},
	} {
		b.Run(mode.name, func(b *testing.B) {
			e, _ := newEngineForBench(b, mode.tr)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok, err := e.Get(ctx, key); err != nil || !ok {
					b.Fatalf("get: ok=%v err=%v", ok, err)
				}
			}
		})
	}
}

package repl

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"costperf/internal/fault"
	"costperf/internal/ssd"
	"costperf/internal/tc"
)

// mapDC is a trivial data component for tests: a mutex-guarded map that
// also implements tc.Scanner.
type mapDC struct {
	mu sync.Mutex
	m  map[string][]byte
}

func newMapDC() *mapDC { return &mapDC{m: map[string][]byte{}} }

func (d *mapDC) Get(key []byte) ([]byte, bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	v, ok := d.m[string(key)]
	if !ok {
		return nil, false, nil
	}
	return append([]byte(nil), v...), true, nil
}

func (d *mapDC) BlindWrite(key, val []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.m[string(key)] = append([]byte(nil), val...)
	return nil
}

func (d *mapDC) Delete(key []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.m, string(key))
	return nil
}

func (d *mapDC) Scan(start []byte, limit int, fn func(key, val []byte) bool) error {
	d.mu.Lock()
	keys := make([]string, 0, len(d.m))
	for k := range d.m {
		if k >= string(start) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	type kv struct{ k, v []byte }
	var out []kv
	for _, k := range keys {
		out = append(out, kv{[]byte(k), append([]byte(nil), d.m[k]...)})
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	d.mu.Unlock()
	for _, p := range out {
		if !fn(p.k, p.v) {
			return nil
		}
	}
	return nil
}

func (d *mapDC) snapshot() map[string][]byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[string][]byte, len(d.m))
	for k, v := range d.m {
		out[k] = append([]byte(nil), v...)
	}
	return out
}

func sameState(t *testing.T, want, got map[string][]byte, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d keys, want %d", label, len(got), len(want))
	}
	for k, v := range want {
		gv, ok := got[k]
		if !ok {
			t.Fatalf("%s: missing key %q", label, k)
		}
		if !bytes.Equal(v, gv) {
			t.Fatalf("%s: key %q = %q, want %q", label, k, gv, v)
		}
	}
}

func newDev(name string) *ssd.Device {
	return ssd.New(ssd.Config{Name: name, MaxIOPS: 1e6, LatencySec: 1e-6})
}

type pair struct {
	c          *Cluster
	primaryDC  *mapDC
	standbyDC  *mapDC
	primaryLog *ssd.Device
	standbyLog *ssd.Device
}

func newPair(t *testing.T, net *fault.NetInjector, tune func(*ClusterConfig)) *pair {
	t.Helper()
	p := &pair{
		primaryDC:  newMapDC(),
		standbyDC:  newMapDC(),
		primaryLog: newDev("plog"),
		standbyLog: newDev("slog"),
	}
	cfg := ClusterConfig{
		PrimaryDC:  p.primaryDC,
		PrimaryLog: p.primaryLog,
		StandbyDC:  p.standbyDC,
		StandbyLog: p.standbyLog,
		Net:        net,
		CommitWait: 5 * time.Second,
		AckTimeout: 5 * time.Millisecond,
		RetryBase:  200 * time.Microsecond,
		RetryMax:   5 * time.Millisecond,
		BatchBytes: 512,
		Seed:       1,
	}
	if tune != nil {
		tune(&cfg)
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	p.c = c
	return p
}

func TestClusterConvergence(t *testing.T) {
	p := newPair(t, nil, nil)
	ctx := context.Background()
	for i := 0; i < 200; i++ {
		k := []byte(fmt.Sprintf("key-%04d", i))
		if err := p.c.Put(ctx, k, []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	for i := 0; i < 50; i += 2 {
		if err := p.c.Delete(ctx, []byte(fmt.Sprintf("key-%04d", i))); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	// Every Put was acked, so the standby already applied everything.
	sameState(t, p.primaryDC.snapshot(), p.standbyDC.snapshot(), "standby")
	if got, want := p.c.Standby().AppliedLSN(), p.c.Primary().DurableLSN(); got != want {
		t.Fatalf("standby applied %d, want primary durable %d", got, want)
	}
	if p.c.Stats().BatchesShipped.Value() == 0 || p.c.Stats().RecordsApplied.Value() != 225 {
		t.Fatalf("unexpected ship stats: %s", p.c.Stats())
	}
	// Standby reads serve the replicated data within the staleness bound.
	v, ok, err := p.c.StandbyGet([]byte("key-0101"))
	if err != nil || !ok || string(v) != "val-101" {
		t.Fatalf("standby get = %q/%v/%v", v, ok, err)
	}
}

func TestClusterConvergesOverLossyLink(t *testing.T) {
	net := fault.NewNetInjector(7)
	net.SetRates(0.15, 0.10, 0.10)
	p := newPair(t, net, nil)
	ctx := context.Background()
	for i := 0; i < 150; i++ {
		k := []byte(fmt.Sprintf("k%03d", i))
		if err := p.c.Put(ctx, k, bytes.Repeat([]byte{byte(i)}, 1+i%40)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	sameState(t, p.primaryDC.snapshot(), p.standbyDC.snapshot(), "standby after lossy link")
	st := p.c.Stats()
	if st.Resends.Value() == 0 {
		t.Fatalf("expected resends over a 15%%-drop link: %s", st)
	}
	if ns := net.Stats(); ns.Dropped == 0 || ns.Duplicated == 0 || ns.Held == 0 {
		t.Fatalf("injector exercised nothing: %+v", ns)
	}
	// Duplicates were absorbed, not applied twice.
	if st.RecordsApplied.Value() != 150 {
		t.Fatalf("records applied = %d, want exactly 150: %s", st.RecordsApplied.Value(), st)
	}
}

func TestPartitionTimesOutThenHeals(t *testing.T) {
	net := fault.NewNetInjector(3)
	p := newPair(t, net, func(c *ClusterConfig) { c.CommitWait = 50 * time.Millisecond })
	ctx := context.Background()
	if err := p.c.Put(ctx, []byte("a"), []byte("1")); err != nil {
		t.Fatalf("put before partition: %v", err)
	}
	net.Partition()
	err := p.c.Put(ctx, []byte("b"), []byte("2"))
	if !errors.Is(err, ErrShipTimeout) {
		t.Fatalf("put under partition = %v, want ErrShipTimeout", err)
	}
	net.Heal()
	if err := p.c.Put(ctx, []byte("c"), []byte("3")); err != nil {
		t.Fatalf("put after heal: %v", err)
	}
	// The timed-out write was durable on the primary; once the partition
	// healed the shipper caught the standby up — nothing durable is lost.
	sameState(t, p.primaryDC.snapshot(), p.standbyDC.snapshot(), "standby after heal")
	if v, ok, _ := p.standbyDC.Get([]byte("b")); !ok || string(v) != "2" {
		t.Fatalf("standby missing the timed-out-but-durable write: %q/%v", v, ok)
	}
}

func TestForcedPromotionFencesOldPrimary(t *testing.T) {
	p := newPair(t, nil, nil)
	ctx := context.Background()
	for i := 0; i < 40; i++ {
		if err := p.c.Put(ctx, []byte(fmt.Sprintf("k%02d", i)), []byte("v")); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	old := p.c.Primary()
	oldDurable := old.DurableLSN()
	if err := p.c.Promote(); err != nil {
		t.Fatalf("promote: %v", err)
	}
	if !p.c.Promoted() || p.c.Epoch() != 2 {
		t.Fatalf("promoted=%v epoch=%d, want true/2", p.c.Promoted(), p.c.Epoch())
	}
	// The old primary is fenced: its commits are rejected by the epoch gate.
	tx, err := old.Begin()
	if err != nil {
		t.Fatalf("begin on old primary: %v", err)
	}
	tx.Write([]byte("stale"), []byte("write"))
	if err := tx.Commit(); !errors.Is(err, ErrFenced) {
		t.Fatalf("stale-primary commit = %v, want ErrFenced", err)
	}
	if p.c.Stats().FencedWrites.Value() == 0 {
		t.Fatal("fenced write not counted")
	}
	// The new primary serves every acked write and accepts new ones.
	for i := 0; i < 40; i++ {
		v, ok, err := p.c.Get(ctx, []byte(fmt.Sprintf("k%02d", i)))
		if err != nil || !ok || string(v) != "v" {
			t.Fatalf("get k%02d after promotion = %q/%v/%v", i, v, ok, err)
		}
	}
	if err := p.c.Put(ctx, []byte("post"), []byte("failover")); err != nil {
		t.Fatalf("put after promotion: %v", err)
	}
	// The promoted TC continued the shipped log in place: new appends land
	// at or after the old durable LSN, keeping history PITR-addressable.
	if got := p.c.Primary().DurableLSN(); got <= oldDurable {
		t.Fatalf("promoted durable LSN %d, want > %d (log continued in place)", got, oldDurable)
	}
	if p.c.Stats().Promotions.Value() != 1 {
		t.Fatalf("promotions = %d, want 1", p.c.Stats().Promotions.Value())
	}
}

func TestAutoFailoverOnDegradedPrimary(t *testing.T) {
	inj := fault.NewInjector(1)
	p := newPair(t, nil, func(c *ClusterConfig) {
		c.AutoFailover = true
		c.WatchEvery = time.Millisecond
	})
	p.primaryLog.SetFaultInjector(inj)
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		if err := p.c.Put(ctx, []byte(fmt.Sprintf("k%02d", i)), []byte("v")); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	// Kill the primary's log device persistently: the TC latches degraded,
	// and either the inline ErrDegraded path or the watcher promotes.
	inj.FailNextWrites(1<<30, fault.ClassPersistent)
	deadline := time.Now().Add(5 * time.Second)
	for !p.c.Promoted() {
		// Keep poking writes: the first few fail while the latch trips.
		_ = p.c.Put(ctx, []byte("poke"), []byte("x"))
		if time.Now().After(deadline) {
			t.Fatal("auto failover never promoted")
		}
		time.Sleep(time.Millisecond)
	}
	// Post-failover the cluster serves reads and writes again.
	if err := p.c.Put(ctx, []byte("after"), []byte("failover")); err != nil {
		t.Fatalf("put after auto failover: %v", err)
	}
	for i := 0; i < 20; i++ {
		v, ok, err := p.c.Get(ctx, []byte(fmt.Sprintf("k%02d", i)))
		if err != nil || !ok || string(v) != "v" {
			t.Fatalf("acked write k%02d lost across failover: %q/%v/%v", i, v, ok, err)
		}
	}
	if h := p.c.Health(); h.Degraded() {
		t.Fatalf("cluster health degraded after successful failover: %s", h)
	}
}

func TestStandbyStaleBoundAndFrameVerification(t *testing.T) {
	link := NewLink(nil)
	dc := newMapDC()
	s := NewStandby(StandbyConfig{
		Link: link, LogDevice: newDev("slog"), DC: dc,
		MaxStaleBytes: 100,
	})
	// A probe reporting a far-ahead durable LSN drives the lag over bound.
	ack, _ := s.Handle(Frame{Epoch: 1, From: probeFrom, Durable: 4096})
	if !ack.OK || ack.Applied != 0 {
		t.Fatalf("probe ack = %+v", ack)
	}
	if _, _, err := s.Get([]byte("k")); !errors.Is(err, ErrTooStale) {
		t.Fatalf("stale get = %v, want ErrTooStale", err)
	}
	// A gap frame is nak'd with the applied cursor.
	ack, _ = s.Handle(Frame{Epoch: 1, From: 50, To: 60, Durable: 4096, Payload: make([]byte, 10)})
	if ack.OK || ack.Reason != "gap" || ack.Applied != 0 {
		t.Fatalf("gap ack = %+v", ack)
	}
	// A corrupt payload is nak'd before anything is applied.
	ack, _ = s.Handle(Frame{Epoch: 1, From: 0, To: 10, Durable: 4096, CRC: 0xdeadbeef, Payload: make([]byte, 10)})
	if ack.OK || ack.Reason != "corrupt" {
		t.Fatalf("corrupt ack = %+v", ack)
	}
	// After Seal, frames from the old epoch are fenced.
	s.Seal(2)
	ack, _ = s.Handle(Frame{Epoch: 1, From: probeFrom})
	if ack.OK || ack.Reason != "fenced" || ack.Epoch != 2 {
		t.Fatalf("fenced ack = %+v", ack)
	}
	st := s.Stats()
	if st.GapNaks.Value() != 1 || st.FencedFrames.Value() != 1 {
		t.Fatalf("stats = %s", st)
	}
}

func TestLinkHoldReordersDelivery(t *testing.T) {
	net := fault.NewNetInjector(1)
	net.SetRates(0, 0, 1) // hold everything possible
	l := NewLink(net)
	l.SendFrame(Frame{From: 1}) // held
	l.SendFrame(Frame{From: 2}) // wants hold, slot busy: delivered, then releases 1
	a := <-l.Frames()
	b := <-l.Frames()
	if a.From != 2 || b.From != 1 {
		t.Fatalf("delivery order = %d,%d, want 2,1 (reordered)", a.From, b.From)
	}
}

func TestPITRCheckpointsAndGates(t *testing.T) {
	p := newPair(t, nil, func(c *ClusterConfig) { c.Retain = 2 })
	ctx := context.Background()
	put := func(k, v string) {
		t.Helper()
		if err := p.c.Put(ctx, []byte(k), []byte(v)); err != nil {
			t.Fatalf("put %s: %v", k, err)
		}
	}
	// Phase 1: initial values.
	for i := 0; i < 10; i++ {
		put(fmt.Sprintf("k%02d", i), "a")
	}
	ck1 := p.c.Standby().MarkCheckpoint()
	oracle1 := p.primaryDC.snapshot()
	// Phase 2: overwrite some, delete some, add some.
	for i := 0; i < 5; i++ {
		put(fmt.Sprintf("k%02d", i), "b")
	}
	if err := p.c.Delete(ctx, []byte("k07")); err != nil {
		t.Fatalf("delete: %v", err)
	}
	put("new", "c")
	ck2 := p.c.Standby().MarkCheckpoint()
	oracle2 := p.primaryDC.snapshot()
	// Phase 3: more churn past the last checkpoint.
	put("tail", "d")

	// PITR to each checkpoint reproduces the exact oracle state.
	for _, tc2 := range []struct {
		name   string
		ck     Checkpoint
		oracle map[string][]byte
	}{{"ck1", ck1, oracle1}, {"ck2", ck2, oracle2}} {
		dst := newMapDC()
		res, err := p.c.Standby().PITRToLSN(tc2.ck.LSN, dst)
		if err != nil {
			t.Fatalf("PITRToLSN(%s): %v", tc2.name, err)
		}
		if res.Replay.TruncatedAt != tc2.ck.LSN {
			t.Fatalf("PITR %s reconstructed to %d, want %d", tc2.name, res.Replay.TruncatedAt, tc2.ck.LSN)
		}
		sameState(t, tc2.oracle, dst.snapshot(), "PITR "+tc2.name)

		dst2 := newMapDC()
		if _, err := p.c.Standby().PITRToTime(tc2.ck.TS, dst2); err != nil {
			t.Fatalf("PITRToTime(%s): %v", tc2.name, err)
		}
		sameState(t, tc2.oracle, dst2.snapshot(), "PITR-by-time "+tc2.name)
	}

	// Gates: beyond what shipped, and below the retention floor.
	if _, err := p.c.Standby().PITRToLSN(p.c.Standby().AppliedLSN()+64, newMapDC()); !errors.Is(err, ErrBeyondApplied) {
		t.Fatalf("beyond-applied PITR = %v, want ErrBeyondApplied", err)
	}
	// Retain=2 kept {ck1, ck2}; a third mark evicts ck1, moving the floor.
	p.c.Standby().MarkCheckpoint()
	if got := p.c.Standby().Checkpoints(); len(got) != 2 || got[0].LSN != ck2.LSN {
		t.Fatalf("checkpoint ring = %+v, want oldest = ck2 (%d)", got, ck2.LSN)
	}
	if _, err := p.c.Standby().PITRToLSN(ck1.LSN, newMapDC()); !errors.Is(err, ErrBeforeRetention) {
		t.Fatalf("below-floor PITR = %v, want ErrBeforeRetention", err)
	}
}

// TestShipperResumesAtEveryBatchBoundary is the cursor-resume property
// test: for each seed, the shipper is killed after reaching every single
// batch boundary in the log and restarted cold. The restarted shipper must
// resync off the standby and resume without a gap (final state converges)
// and without double-applying (RecordsApplied counts each commit exactly
// once). Odd seeds run the sweep over a lossy, reordering link.
func TestShipperResumesAtEveryBatchBoundary(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			const batchBytes = 256
			primaryDC, standbyDC := newMapDC(), newMapDC()
			plog, slog := newDev("plog"), newDev("slog")
			primary, err := tc.New(tc.Config{DC: primaryDC, LogDevice: plog})
			if err != nil {
				t.Fatalf("tc.New: %v", err)
			}
			// Seed-dependent workload: record sizes vary so batch
			// boundaries land differently per seed.
			commits := 60 + int(seed)*7
			for i := 0; i < commits; i++ {
				tx, err := primary.Begin()
				if err != nil {
					t.Fatalf("begin: %v", err)
				}
				k := []byte(fmt.Sprintf("s%d-k%03d", seed, i))
				v := bytes.Repeat([]byte{byte(i)}, 1+(i*int(seed))%97)
				if err := tx.Write(k, v); err != nil {
					t.Fatalf("write: %v", err)
				}
				if err := tx.Commit(); err != nil {
					t.Fatalf("commit: %v", err)
				}
			}
			if err := primary.Flush(); err != nil {
				t.Fatalf("flush: %v", err)
			}
			durable := primary.DurableLSN()

			// Enumerate every batch boundary the shipper will cut.
			var boundaries []int64
			for cur := int64(0); cur < durable; {
				_, end, err := tc.ReadLogBatch(plog, cur, durable, batchBytes)
				if err != nil {
					t.Fatalf("ReadLogBatch: %v", err)
				}
				boundaries = append(boundaries, end)
				cur = end
			}
			if len(boundaries) < 10 {
				t.Fatalf("workload too small: only %d batches", len(boundaries))
			}

			var net *fault.NetInjector
			if seed%2 == 1 {
				net = fault.NewNetInjector(seed)
				net.SetRates(0.10, 0.10, 0.10)
			}
			link := NewLink(net)
			standby := NewStandby(StandbyConfig{Link: link, LogDevice: slog, DC: standbyDC})
			standby.Start()
			defer standby.Stop()

			// Kill the shipper at every batch boundary and restart cold.
			for _, lsn := range boundaries {
				sh := NewShipper(ShipperConfig{
					TC: primary, Link: link, BatchBytes: batchBytes,
					Window: 1, AckTimeout: 5 * time.Millisecond,
					RetryBase: 200 * time.Microsecond, RetryMax: 2 * time.Millisecond,
					Seed: seed, Stats: standby.Stats(),
				})
				sh.Start()
				if err := sh.WaitShipped(lsn, 10*time.Second); err != nil {
					t.Fatalf("WaitShipped(%d): %v", lsn, err)
				}
				sh.Stop() // killed at (or past) this batch boundary
			}

			// No gap: the standby converged to the full durable log.
			if got := standby.AppliedLSN(); got != durable {
				t.Fatalf("standby applied %d, want %d", got, durable)
			}
			sameState(t, primaryDC.snapshot(), standbyDC.snapshot(), "standby after kill sweep")
			// No duplicate application: despite resends and restarts, each
			// commit record was applied exactly once.
			if got := standby.Stats().RecordsApplied.Value(); got != int64(commits) {
				t.Fatalf("records applied = %d, want exactly %d (stats: %s)",
					got, commits, standby.Stats())
			}
			// The standby log is a byte-identical prefix of the primary's.
			pb, err := plog.ReadAt(0, int(durable), nil)
			if err != nil {
				t.Fatalf("read primary log: %v", err)
			}
			sb, err := slog.ReadAt(0, int(durable), nil)
			if err != nil {
				t.Fatalf("read standby log: %v", err)
			}
			if !bytes.Equal(pb, sb) {
				t.Fatal("standby log diverged from primary log bytes")
			}
		})
	}
}

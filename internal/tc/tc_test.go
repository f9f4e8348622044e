package tc

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"costperf/internal/bwtree"
	"costperf/internal/llama/logstore"
	"costperf/internal/ssd"
	"costperf/internal/workload"
)

// memDC is an in-memory DataComponent for unit tests.
type memDC struct {
	mu     sync.Mutex
	m      map[string][]byte
	gets   int
	writes int
}

func newMemDC() *memDC { return &memDC{m: map[string][]byte{}} }

func (d *memDC) Get(key []byte) ([]byte, bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.gets++
	v, ok := d.m[string(key)]
	return v, ok, nil
}

func (d *memDC) BlindWrite(key, val []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.writes++
	d.m[string(key)] = append([]byte(nil), val...)
	return nil
}

func (d *memDC) Delete(key []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.writes++
	delete(d.m, string(key))
	return nil
}

func newTC(t *testing.T, dc DataComponent) *TC {
	t.Helper()
	c, err := New(Config{DC: dc, LogDevice: ssd.New(ssd.SamsungSSD)})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCommitReadBack(t *testing.T) {
	dc := newMemDC()
	c := newTC(t, dc)
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Write([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	// Own writes visible before commit.
	if v, ok, _ := tx.Read([]byte("a")); !ok || string(v) != "1" {
		t.Fatalf("own write = %q,%v", v, ok)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2, _ := c.Begin()
	if v, ok, _ := tx2.Read([]byte("a")); !ok || string(v) != "1" {
		t.Fatalf("committed value = %q,%v", v, ok)
	}
	if dc.writes != 1 {
		t.Fatalf("DC writes = %d, want 1 blind update", dc.writes)
	}
	// The read was served by the version store, not the DC.
	if dc.gets != 0 {
		t.Fatalf("DC gets = %d, want 0 (version-store hit)", dc.gets)
	}
	if c.Stats().VersionStoreHits.Value() == 0 {
		t.Fatal("version store hit not counted")
	}
}

func TestSnapshotIsolation(t *testing.T) {
	dc := newMemDC()
	c := newTC(t, dc)
	// Commit v1.
	tx, _ := c.Begin()
	tx.Write([]byte("k"), []byte("v1"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Reader snapshots before v2.
	reader, _ := c.Begin()
	// Writer commits v2.
	w, _ := c.Begin()
	w.Write([]byte("k"), []byte("v2"))
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	// Reader still sees v1.
	if v, ok, _ := reader.Read([]byte("k")); !ok || string(v) != "v1" {
		t.Fatalf("snapshot read = %q,%v, want v1", v, ok)
	}
	// New reader sees v2.
	r2, _ := c.Begin()
	if v, _, _ := r2.Read([]byte("k")); string(v) != "v2" {
		t.Fatalf("new snapshot = %q, want v2", v)
	}
}

func TestKeyCreatedAfterSnapshotInvisible(t *testing.T) {
	dc := newMemDC()
	c := newTC(t, dc)
	reader, _ := c.Begin()
	w, _ := c.Begin()
	w.Write([]byte("new"), []byte("x"))
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := reader.Read([]byte("new")); ok {
		t.Fatal("snapshot sees a key created after it")
	}
	// And the DC must not have been consulted (the version store decides).
	if dc.gets != 0 {
		t.Fatalf("DC gets = %d, want 0", dc.gets)
	}
}

func TestWriteWriteConflictAborts(t *testing.T) {
	dc := newMemDC()
	c := newTC(t, dc)
	t1, _ := c.Begin()
	t2, _ := c.Begin()
	t1.Write([]byte("k"), []byte("from-t1"))
	t2.Write([]byte("k"), []byte("from-t2"))
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("t2 commit err = %v, want conflict", err)
	}
	if c.Stats().Conflicts.Value() != 1 {
		t.Fatal("conflict not counted")
	}
	r, _ := c.Begin()
	if v, _, _ := r.Read([]byte("k")); string(v) != "from-t1" {
		t.Fatalf("value = %q, want first committer's", v)
	}
}

func TestDisjointWritersBothCommit(t *testing.T) {
	c := newTC(t, newMemDC())
	t1, _ := c.Begin()
	t2, _ := c.Begin()
	t1.Write([]byte("a"), []byte("1"))
	t2.Write([]byte("b"), []byte("2"))
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatalf("disjoint writer aborted: %v", err)
	}
}

func TestDeleteVisibility(t *testing.T) {
	c := newTC(t, newMemDC())
	tx, _ := c.Begin()
	tx.Write([]byte("k"), []byte("v"))
	tx.Commit()
	reader, _ := c.Begin()
	d, _ := c.Begin()
	d.Delete([]byte("k"))
	if err := d.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := reader.Read([]byte("k")); !ok {
		t.Fatal("snapshot should still see the deleted key")
	}
	r2, _ := c.Begin()
	if _, ok, _ := r2.Read([]byte("k")); ok {
		t.Fatal("new snapshot sees deleted key")
	}
}

func TestAbortDiscards(t *testing.T) {
	c := newTC(t, newMemDC())
	tx, _ := c.Begin()
	tx.Write([]byte("k"), []byte("v"))
	tx.Abort()
	if err := tx.Commit(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("commit after abort = %v", err)
	}
	r, _ := c.Begin()
	if _, ok, _ := r.Read([]byte("k")); ok {
		t.Fatal("aborted write visible")
	}
}

func TestTxDoneGuards(t *testing.T) {
	c := newTC(t, newMemDC())
	tx, _ := c.Begin()
	tx.Commit()
	if _, _, err := tx.Read([]byte("x")); !errors.Is(err, ErrTxDone) {
		t.Fatal("read after commit allowed")
	}
	if err := tx.Write([]byte("x"), nil); !errors.Is(err, ErrTxDone) {
		t.Fatal("write after commit allowed")
	}
	if err := tx.Delete([]byte("x")); !errors.Is(err, ErrTxDone) {
		t.Fatal("delete after commit allowed")
	}
}

func TestReadCachePopulatedFromDC(t *testing.T) {
	dc := newMemDC()
	dc.m["cold"] = []byte("disk-value")
	c := newTC(t, dc)
	r1, _ := c.Begin()
	if v, ok, _ := r1.Read([]byte("cold")); !ok || string(v) != "disk-value" {
		t.Fatalf("cold read = %q,%v", v, ok)
	}
	if dc.gets != 1 {
		t.Fatalf("DC gets = %d, want 1", dc.gets)
	}
	// Second read: served from the read cache, no DC access.
	r2, _ := c.Begin()
	if v, ok, _ := r2.Read([]byte("cold")); !ok || string(v) != "disk-value" {
		t.Fatalf("cached read = %q,%v", v, ok)
	}
	if dc.gets != 1 {
		t.Fatalf("DC gets = %d after cached read, want 1", dc.gets)
	}
	if c.Stats().ReadCacheHits.Value() != 1 {
		t.Fatal("read-cache hit not counted")
	}
}

func TestCommitInvalidatesReadCache(t *testing.T) {
	dc := newMemDC()
	dc.m["k"] = []byte("old")
	c := newTC(t, dc)
	r, _ := c.Begin()
	r.Read([]byte("k")) // populate cache
	w, _ := c.Begin()
	w.Write([]byte("k"), []byte("new"))
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	c.GC() // drop the version so the read must use cache/DC
	r2, _ := c.Begin()
	if v, _, _ := r2.Read([]byte("k")); string(v) != "new" {
		t.Fatalf("post-GC read = %q, want new (stale cache not invalidated?)", v)
	}
}

func TestGCDropsGloballyVisibleVersions(t *testing.T) {
	c := newTC(t, newMemDC())
	for i := 0; i < 100; i++ {
		tx, _ := c.Begin()
		tx.Write([]byte(fmt.Sprintf("k%d", i)), []byte("v"))
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if c.VersionCount() != 100 {
		t.Fatalf("VersionCount = %d", c.VersionCount())
	}
	c.GC()
	if c.VersionCount() != 0 {
		t.Fatalf("VersionCount after GC = %d, want 0 (no active tx)", c.VersionCount())
	}
	if c.Stats().VersionsDropped.Value() != 100 {
		t.Fatalf("dropped = %d", c.Stats().VersionsDropped.Value())
	}
}

func TestGCRespectsActiveSnapshots(t *testing.T) {
	dc := newMemDC()
	c := newTC(t, dc)
	tx, _ := c.Begin()
	tx.Write([]byte("k"), []byte("v1"))
	tx.Commit()
	reader, _ := c.Begin() // snapshot at v1
	w, _ := c.Begin()
	w.Write([]byte("k"), []byte("v2"))
	w.Commit()
	c.GC()
	// Reader must still see v1 (version kept, or served consistently).
	if v, ok, _ := reader.Read([]byte("k")); !ok || string(v) != "v1" {
		t.Fatalf("snapshot after GC = %q,%v, want v1", v, ok)
	}
}

func TestTrimOnCommitRetention(t *testing.T) {
	c := newTC(t, newMemDC())
	versions := func() int {
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.mvcc["k"].vs)
	}
	commitOne(t, c, "k", "v0", false)
	reader, _ := c.Begin() // a long-open snapshot at v0
	for i := 1; i <= 100; i++ {
		commitOne(t, c, "k", fmt.Sprintf("v%d", i), false)
	}
	if v, ok, err := reader.Read([]byte("k")); err != nil || !ok || string(v) != "v0" {
		t.Fatalf("long-open snapshot read = %q,%v,%v, want v0", v, ok, err)
	}
	if n := versions(); n != 101 {
		t.Fatalf("versions with a snapshot open = %d, want 101", n)
	}
	reader.Abort()
	commitOne(t, c, "k", "v101", false)
	if n := versions(); n != 1 {
		t.Fatalf("versions after the snapshot ended = %d, want 1", n)
	}
	if d := c.Stats().VersionsDropped.Value(); d != 101 {
		t.Fatalf("VersionsDropped = %d, want 101", d)
	}
	// With no snapshot open, every commit leaves one version.
	commitOne(t, c, "k", "v102", false)
	if n := versions(); n != 1 {
		t.Fatalf("versions after an unwatched recommit = %d, want 1", n)
	}
	r, _ := c.Begin()
	if v, _, _ := r.Read([]byte("k")); string(v) != "v102" {
		t.Fatalf("fresh read = %q, want v102", v)
	}
}

func TestRecoveryReplaysCommittedOnly(t *testing.T) {
	logDev := ssd.New(ssd.SamsungSSD)
	dc := newMemDC()
	c, err := New(Config{DC: dc, LogDevice: logDev})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		tx, _ := c.Begin()
		tx.Write(workload.Key(uint64(i)), workload.ValueFor(uint64(i), 16))
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// An uncommitted transaction must not be replayed.
	loser, _ := c.Begin()
	loser.Write([]byte("uncommitted"), []byte("x"))
	// (never committed)
	// A deleted key.
	d, _ := c.Begin()
	d.Delete(workload.Key(7))
	if err := d.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": replay into a fresh DC.
	dc2 := newMemDC()
	res, err := Recover(logDev, dc2)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxTS == 0 || res.Applied == 0 {
		t.Fatalf("maxTS=%d applied=%d", res.MaxTS, res.Applied)
	}
	for i := 0; i < 50; i++ {
		v, ok, _ := dc2.Get(workload.Key(uint64(i)))
		if i == 7 {
			if ok {
				t.Fatal("deleted key resurrected by recovery")
			}
			continue
		}
		if !ok || !bytes.Equal(v, workload.ValueFor(uint64(i), 16)) {
			t.Fatalf("recovered key %d wrong (ok=%v)", i, ok)
		}
	}
	if _, ok, _ := dc2.Get([]byte("uncommitted")); ok {
		t.Fatal("uncommitted write replayed")
	}
}

func TestTornLogTailIgnored(t *testing.T) {
	logDev := ssd.New(ssd.SamsungSSD)
	dc := newMemDC()
	c, _ := New(Config{DC: dc, LogDevice: logDev})
	tx, _ := c.Begin()
	tx.Write([]byte("good"), []byte("1"))
	tx.Commit()
	c.Close()
	// Append garbage that looks like a frame header claiming more bytes.
	tail := logDev.HighWater()
	logDev.WriteAt(tail, []byte{rlogMagic, 0, 0, 1, 0, 0, 0, 0, 0}, nil)

	dc2 := newMemDC()
	if res, err := Recover(logDev, dc2); err != nil || res.Applied != 1 {
		t.Fatalf("applied=%d err=%v", res.Applied, err)
	}
}

func TestEndToEndWithBwTree(t *testing.T) {
	// Full Deuteronomy stack: TC over Bw-tree over LLAMA over simulated SSD.
	dataDev := ssd.New(ssd.SamsungSSD)
	logDev := ssd.New(ssd.SamsungSSD)
	st, err := logstore.Open(logstore.Config{Device: dataDev, BufferBytes: 1 << 14, SegmentBytes: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := bwtree.New(bwtree.Config{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{DC: tree, LogDevice: logDev})
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	for i := 0; i < n; i++ {
		tx, _ := c.Begin()
		tx.Write(workload.Key(uint64(i)), workload.ValueFor(uint64(i), 32))
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	c.GC() // force reads down to the caches/DC
	// Evict all pages: reads exercise the whole path.
	for _, pid := range tree.Pages() {
		if err := tree.EvictPage(pid, false); err != nil {
			t.Fatal(err)
		}
	}
	tx, _ := c.Begin()
	for i := 0; i < n; i++ {
		v, ok, err := tx.Read(workload.Key(uint64(i)))
		if err != nil || !ok {
			t.Fatalf("key %d: ok=%v err=%v", i, ok, err)
		}
		if !bytes.Equal(v, workload.ValueFor(uint64(i), 32)) {
			t.Fatalf("key %d corrupt", i)
		}
	}
	// Crash-recover the TC log into a fresh Bw-tree and verify.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	dev2 := ssd.New(ssd.SamsungSSD)
	st2, _ := logstore.Open(logstore.Config{Device: dev2, BufferBytes: 1 << 14, SegmentBytes: 1 << 16})
	tree2, _ := bwtree.New(bwtree.Config{Store: st2})
	if res, err := Recover(logDev, tree2); err != nil || res.Applied != n {
		t.Fatalf("applied=%d err=%v", res.Applied, err)
	}
	for i := 0; i < n; i++ {
		v, ok, err := tree2.Get(workload.Key(uint64(i)))
		if err != nil || !ok || !bytes.Equal(v, workload.ValueFor(uint64(i), 32)) {
			t.Fatalf("recovered key %d wrong (ok=%v err=%v)", i, ok, err)
		}
	}
}

func TestConcurrentTransactions(t *testing.T) {
	c := newTC(t, newMemDC())
	var wg sync.WaitGroup
	var commits, conflicts sync.Map
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tx, err := c.Begin()
				if err != nil {
					t.Errorf("begin: %v", err)
					return
				}
				key := []byte(fmt.Sprintf("k%d", i%20))
				tx.Read(key)
				tx.Write(key, []byte(fmt.Sprintf("w%d-%d", w, i)))
				switch err := tx.Commit(); {
				case err == nil:
					commits.Store(fmt.Sprintf("%d-%d", w, i), true)
				case errors.Is(err, ErrConflict):
					conflicts.Store(fmt.Sprintf("%d-%d", w, i), true)
				default:
					t.Errorf("commit: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	nCommits := 0
	commits.Range(func(_, _ any) bool { nCommits++; return true })
	if nCommits == 0 {
		t.Fatal("no transactions committed")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{LogDevice: ssd.New(ssd.SamsungSSD)}); err == nil {
		t.Fatal("nil DC accepted")
	}
	if _, err := New(Config{DC: newMemDC()}); err == nil {
		t.Fatal("nil log device accepted")
	}
}

func TestClosedTC(t *testing.T) {
	c := newTC(t, newMemDC())
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal("double close errored")
	}
	if _, err := c.Begin(); !errors.Is(err, ErrClosed) {
		t.Fatalf("begin after close = %v", err)
	}
}

func TestGroupCommitBatchesLogWrites(t *testing.T) {
	logDev := ssd.New(ssd.SamsungSSD)
	c, _ := New(Config{DC: newMemDC(), LogDevice: logDev})
	for i := 0; i < 200; i++ {
		tx, _ := c.Begin()
		tx.Write(workload.Key(uint64(i)), []byte("v"))
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	// 200 commits should produce very few device writes (group commit).
	if w := logDev.Stats().Writes.Value(); w > 5 {
		t.Fatalf("log device writes = %d for 200 commits", w)
	}
}

func TestNoLostUpdatesUnderConcurrency(t *testing.T) {
	// The classic lost-update check: concurrent read-modify-write
	// transactions on one counter under snapshot isolation with
	// first-committer-wins. Every successful commit must be reflected:
	// final counter == number of commits.
	c := newTC(t, newMemDC())
	init, _ := c.Begin()
	init.Write([]byte("counter"), []byte("0"))
	if err := init.Commit(); err != nil {
		t.Fatal(err)
	}
	var commits atomic.Int64
	var wg sync.WaitGroup
	// A background GC makes the data component authoritative for cold
	// versions, so commit-publication ordering bugs surface as lost
	// updates here.
	stopGC := make(chan struct{})
	var gcWG sync.WaitGroup
	gcWG.Add(1)
	go func() {
		defer gcWG.Done()
		for {
			select {
			case <-stopGC:
				return
			default:
				c.GC()
			}
		}
	}()
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				for attempt := 0; attempt < 200; attempt++ {
					tx, err := c.Begin()
					if err != nil {
						t.Error(err)
						return
					}
					v, ok, err := tx.Read([]byte("counter"))
					if err != nil || !ok {
						t.Errorf("read: ok=%v err=%v", ok, err)
						return
					}
					n, err := strconv.Atoi(string(v))
					if err != nil {
						t.Error(err)
						return
					}
					tx.Write([]byte("counter"), []byte(strconv.Itoa(n+1)))
					err = tx.Commit()
					if err == nil {
						commits.Add(1)
						break
					}
					if !errors.Is(err, ErrConflict) {
						t.Errorf("commit: %v", err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stopGC)
	gcWG.Wait()
	c.GC() // force the final read down to the data component
	final, _ := c.Begin()
	v, ok, err := final.Read([]byte("counter"))
	if err != nil || !ok {
		t.Fatalf("final read: ok=%v err=%v", ok, err)
	}
	n, err := strconv.Atoi(string(v))
	if err != nil {
		t.Fatal(err)
	}
	if int64(n) != commits.Load() {
		t.Fatalf("counter = %d, commits = %d: lost updates", n, commits.Load())
	}
	if commits.Load() == 0 {
		t.Fatal("nothing committed")
	}
}

func TestSnapshotSurvivesGCAndRecommit(t *testing.T) {
	// The nasty interleaving: a reader's visible version is GC-truncated
	// (globally visible, so the DC held it), then a newer commit
	// overwrites the DC. The commit must re-capture the pre-image into
	// the version store so the reader still sees its snapshot.
	dc := newMemDC()
	c := newTC(t, dc)
	w1, _ := c.Begin()
	w1.Write([]byte("k"), []byte("v1"))
	if err := w1.Commit(); err != nil {
		t.Fatal(err)
	}
	reader, _ := c.Begin() // snapshot sees v1
	c.GC()                 // v1 globally visible -> truncated to the DC
	w2, _ := c.Begin()
	w2.Write([]byte("k"), []byte("v2"))
	if err := w2.Commit(); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := reader.Read([]byte("k")); err != nil || !ok || string(v) != "v1" {
		t.Fatalf("snapshot after GC+recommit = %q,%v,%v, want v1", v, ok, err)
	}
	// A fresh snapshot sees v2.
	r2, _ := c.Begin()
	if v, _, _ := r2.Read([]byte("k")); string(v) != "v2" {
		t.Fatalf("fresh read = %q, want v2", v)
	}
	// Same story for a key that is deleted after truncation.
	w3, _ := c.Begin()
	w3.Write([]byte("gone"), []byte("old"))
	if err := w3.Commit(); err != nil {
		t.Fatal(err)
	}
	r3, _ := c.Begin()
	c.GC()
	d, _ := c.Begin()
	d.Delete([]byte("gone"))
	if err := d.Commit(); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := r3.Read([]byte("gone")); err != nil || !ok || string(v) != "old" {
		t.Fatalf("snapshot of deleted key = %q,%v,%v, want old", v, ok, err)
	}
	r4, _ := c.Begin()
	if _, ok, _ := r4.Read([]byte("gone")); ok {
		t.Fatal("fresh snapshot sees deleted key")
	}
}

func TestCorruptLogRecordFailsRecovery(t *testing.T) {
	logDev := ssd.New(ssd.SamsungSSD)
	c, _ := New(Config{DC: newMemDC(), LogDevice: logDev})
	tx, _ := c.Begin()
	tx.Write([]byte("k"), []byte("v"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the committed record's body (past the 9-byte
	// frame header): the checksum must catch it and recovery must stop
	// cleanly rather than apply garbage.
	raw, err := logDev.ReadAt(0, 12, nil)
	if err != nil {
		t.Fatal(err)
	}
	raw[10] ^= 0xFF
	if err := logDev.WriteAt(0, raw, nil); err != nil {
		t.Fatal(err)
	}
	dc := newMemDC()
	res, err := Recover(logDev, dc)
	if err != nil {
		t.Fatalf("recovery errored instead of stopping at the bad frame: %v", err)
	}
	if res.Applied != 0 || res.MaxTS != 0 {
		t.Fatalf("corrupt record applied: n=%d ts=%d", res.Applied, res.MaxTS)
	}
	if res.Replay.Reason != ReplayBadCRC || res.Replay.TruncatedAt != 0 {
		t.Fatalf("replay summary = %v, want bad-crc at 0", res.Replay)
	}
}

func TestCommitSurfacesDCError(t *testing.T) {
	dc := &failingDC{memDC: newMemDC()}
	c := newTC(t, dc)
	tx, _ := c.Begin()
	tx.Write([]byte("k"), []byte("v"))
	dc.fail = true
	if err := tx.Commit(); err == nil {
		t.Fatal("DC write failure swallowed at commit")
	}
	// The TC remains usable for subsequent transactions.
	dc.fail = false
	tx2, _ := c.Begin()
	tx2.Write([]byte("k2"), []byte("v2"))
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
}

type failingDC struct {
	*memDC
	fail bool
}

func (d *failingDC) BlindWrite(key, val []byte) error {
	if d.fail {
		return errors.New("injected DC failure")
	}
	return d.memDC.BlindWrite(key, val)
}

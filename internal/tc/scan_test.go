package tc

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"costperf/internal/bwtree"
	"costperf/internal/masstree"
	"costperf/internal/ssd"
)

// scanDC wraps memDC with an ordered Scan for scan tests.
type scanDC struct{ *memDC }

func (d *scanDC) Scan(start []byte, limit int, fn func(k, v []byte) bool) error {
	d.mu.Lock()
	keys := make([]string, 0, len(d.m))
	for k := range d.m {
		if bytes.Compare([]byte(k), start) >= 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	snapshot := make(map[string][]byte, len(keys))
	for _, k := range keys {
		snapshot[k] = d.m[k]
	}
	d.mu.Unlock()
	n := 0
	for _, k := range keys {
		if limit > 0 && n >= limit {
			return nil
		}
		if !fn([]byte(k), snapshot[k]) {
			return nil
		}
		n++
	}
	return nil
}

// massDC is a MassTree-backed data component. Its Scan runs the callback
// under the tree's read lock, as the router's shard data component does.
type massDC struct{ t *masstree.Tree }

func newMassDC() *massDC { return &massDC{t: masstree.New(nil)} }

func (d *massDC) Get(key []byte) ([]byte, bool, error) {
	v, ok := d.t.Get(key)
	return v, ok, nil
}
func (d *massDC) BlindWrite(key, val []byte) error { d.t.Put(key, val); return nil }
func (d *massDC) Delete(key []byte) error          { d.t.Delete(key); return nil }
func (d *massDC) Scan(start []byte, limit int, fn func(k, v []byte) bool) error {
	d.t.Scan(start, limit, fn)
	return nil
}

func newScanTC(t *testing.T) (*TC, *scanDC) {
	t.Helper()
	dc := &scanDC{newMemDC()}
	c, err := New(Config{DC: dc, LogDevice: ssd.New(ssd.SamsungSSD)})
	if err != nil {
		t.Fatal(err)
	}
	return c, dc
}

func collect(t *testing.T, tx *Tx, start string, limit int) []string {
	t.Helper()
	var got []string
	if err := tx.Scan([]byte(start), limit, func(k, v []byte) bool {
		got = append(got, string(k)+"="+string(v))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestScanNoScannerDC(t *testing.T) {
	c := newTC(t, newMemDC()) // plain memDC has no Scan
	tx, _ := c.Begin()
	if err := tx.Scan(nil, 0, func(_, _ []byte) bool { return true }); !errors.Is(err, ErrNoScan) {
		t.Fatalf("err = %v, want ErrNoScan", err)
	}
}

func TestScanMergesAllSources(t *testing.T) {
	c, dc := newScanTC(t)
	// DC-only data (pre-existing, no versions).
	dc.m["a"] = []byte("dc")
	dc.m["d"] = []byte("dc")
	// Committed version (also posted to DC as a blind update).
	w, _ := c.Begin()
	w.Write([]byte("b"), []byte("committed"))
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	tx, _ := c.Begin()
	// Own write, not yet committed.
	tx.Write([]byte("c"), []byte("own"))
	got := collect(t, tx, "", 0)
	want := []string{"a=dc", "b=committed", "c=own", "d=dc"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("scan = %v, want %v", got, want)
	}
}

func TestScanSnapshotVisibility(t *testing.T) {
	c, dc := newScanTC(t)
	dc.m["k1"] = []byte("v0")
	w0, _ := c.Begin()
	w0.Write([]byte("k2"), []byte("v0"))
	if err := w0.Commit(); err != nil {
		t.Fatal(err)
	}
	reader, _ := c.Begin()
	// Post-snapshot commits: an overwrite, a delete, and a brand-new key.
	w, _ := c.Begin()
	w.Write([]byte("k2"), []byte("v1"))
	w.Write([]byte("k3"), []byte("new"))
	w.Delete([]byte("k1")) // DC still has k1? blind delete removes it from DC
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	got := collect(t, reader, "", 0)
	// The snapshot sees k2=v0; k3 invisible. k1's delete postdates the
	// snapshot, so the version store must resurrect it... but k1 had no
	// version (DC-only), so the delete version with commitTS > snapshot
	// leaves the pre-image to the DC — which no longer has it. This is the
	// documented limit of blind updates to the DC: the version store only
	// guarantees snapshot reads for data that has a version at-or-below
	// the snapshot or is untouched. k2 must be v0 and k3 absent.
	for _, g := range got {
		if g == "k2=v1" {
			t.Fatalf("snapshot saw post-snapshot overwrite: %v", got)
		}
		if g == "k3=new" {
			t.Fatalf("snapshot saw post-snapshot insert: %v", got)
		}
	}
	found := false
	for _, g := range got {
		if g == "k2=v0" {
			found = true
		}
	}
	if !found {
		t.Fatalf("snapshot missed k2=v0: %v", got)
	}
	// A fresh snapshot sees the new world.
	r2, _ := c.Begin()
	got2 := collect(t, r2, "", 0)
	want := []string{"k2=v1", "k3=new"}
	if fmt.Sprint(got2) != fmt.Sprint(want) {
		t.Fatalf("fresh scan = %v, want %v", got2, want)
	}
}

func TestScanOwnDeleteMasksDC(t *testing.T) {
	c, dc := newScanTC(t)
	dc.m["x"] = []byte("dc")
	tx, _ := c.Begin()
	tx.Delete([]byte("x"))
	got := collect(t, tx, "", 0)
	if len(got) != 0 {
		t.Fatalf("scan = %v, want empty (own delete masks DC)", got)
	}
}

func TestScanStartAndLimit(t *testing.T) {
	c, dc := newScanTC(t)
	for i := 0; i < 10; i++ {
		dc.m[fmt.Sprintf("k%02d", i)] = []byte("v")
	}
	tx, _ := c.Begin()
	tx.Write([]byte("k035"), []byte("own")) // sorts between k03 and k04
	got := collect(t, tx, "k03", 3)
	want := []string{"k03=v", "k035=own", "k04=v"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("scan = %v, want %v", got, want)
	}
}

func TestScanEarlyStop(t *testing.T) {
	c, dc := newScanTC(t)
	for i := 0; i < 10; i++ {
		dc.m[fmt.Sprintf("k%02d", i)] = []byte("v")
	}
	tx, _ := c.Begin()
	n := 0
	if err := tx.Scan(nil, 0, func(_, _ []byte) bool { n++; return n < 4 }); err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("visited %d", n)
	}
}

func TestScanOverBwTree(t *testing.T) {
	// Full-stack: transactional scans over the real data component.
	tree, err := bwtree.New(bwtree.Config{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{DC: tree, LogDevice: ssd.New(ssd.SamsungSSD)})
	if err != nil {
		t.Fatal(err)
	}
	setup, _ := c.Begin()
	for i := 0; i < 500; i++ {
		setup.Write([]byte(fmt.Sprintf("key-%04d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}
	c.GC() // push visibility authority to the DC
	tx, _ := c.Begin()
	tx.Write([]byte("key-0100x"), []byte("inserted"))
	tx.Delete([]byte("key-0101"))
	var got []string
	if err := tx.Scan([]byte("key-0100"), 4, func(k, _ []byte) bool {
		got = append(got, string(k))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want := []string{"key-0100", "key-0100x", "key-0102", "key-0103"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("scan = %v, want %v", got, want)
	}
	if c.Stats().Scans.Value() == 0 {
		t.Fatal("scan not counted")
	}
}

func TestScanDoneTx(t *testing.T) {
	c, _ := newScanTC(t)
	tx, _ := c.Begin()
	tx.Abort()
	if err := tx.Scan(nil, 0, func(_, _ []byte) bool { return true }); !errors.Is(err, ErrTxDone) {
		t.Fatalf("err = %v", err)
	}
}

// Property: a committed-state scan equals a sorted model of all commits.
func TestScanModelProperty(t *testing.T) {
	type op struct {
		Key uint8
		Val uint16
		Del bool
	}
	f := func(ops []op) bool {
		c, _ := func() (*TC, *scanDC) {
			dc := &scanDC{newMemDC()}
			tc, err := New(Config{DC: dc, LogDevice: ssd.New(ssd.SamsungSSD)})
			if err != nil {
				panic(err)
			}
			return tc, dc
		}()
		model := map[string]string{}
		for _, o := range ops {
			k := fmt.Sprintf("k%03d", o.Key)
			v := fmt.Sprintf("v%d", o.Val)
			tx, err := c.Begin()
			if err != nil {
				return false
			}
			if o.Del {
				tx.Delete([]byte(k))
				delete(model, k)
			} else {
				tx.Write([]byte(k), []byte(v))
				model[k] = v
			}
			if err := tx.Commit(); err != nil {
				return false
			}
		}
		keys := make([]string, 0, len(model))
		for k := range model {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		tx, err := c.Begin()
		if err != nil {
			return false
		}
		i := 0
		okAll := true
		err = tx.Scan(nil, 0, func(k, v []byte) bool {
			if i >= len(keys) || string(k) != keys[i] || string(v) != model[keys[i]] {
				okAll = false
				return false
			}
			i++
			return true
		})
		return err == nil && okAll && i == len(keys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// snapshotModel is a scan oracle: the expected key/value state at one
// snapshot, queried in key order.
type snapshotModel map[string]string

// scan returns the model's first limit rows at or after start (all when
// limit <= 0), formatted like collect.
func (m snapshotModel) scan(start string, limit int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		if k >= start {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	if limit > 0 && len(keys) > limit {
		keys = keys[:limit]
	}
	rows := make([]string, len(keys))
	for i, k := range keys {
		rows[i] = k + "=" + m[k]
	}
	return rows
}

func commitOne(t *testing.T, c *TC, key, val string, del bool) {
	t.Helper()
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if del {
		tx.Delete([]byte(key))
	} else {
		tx.Write([]byte(key), []byte(val))
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestScanMultiChunkModel checks scans spanning many index chunks against
// a snapshot model: deletes and GC-truncated keys before the snapshot,
// keys created, overwritten and deleted after it, DC-only keys, and the
// reader's own writes scattered across chunk boundaries.
func TestScanMultiChunkModel(t *testing.T) {
	const n = 6 * scanChunk
	c, dc := newScanTC(t)
	key := func(i int) string { return fmt.Sprintf("k%04d", i) }
	model := snapshotModel{}
	// DC-only keys that never pass through the TC.
	for i := 0; i < n; i += 11 {
		k := key(i) + "d"
		dc.m[k] = []byte("dc")
		model[k] = "dc"
	}
	// Committed history, before the snapshot.
	for i := 0; i < n; i++ {
		if i%4 == 3 {
			continue // created after the snapshot, below
		}
		commitOne(t, c, key(i), "v0", false)
		model[key(i)] = "v0"
	}
	// The first third becomes GC truncation markers: the DC is the
	// authority for those keys until a later commit recaptures them.
	for i := 0; i < n/3; i++ {
		if i%4 != 3 {
			commitOne(t, c, key(i), "v1", false)
			model[key(i)] = "v1"
		}
	}
	c.GC()
	// Every 5th key is deleted before the snapshot.
	for i := 0; i < n; i += 5 {
		if i%4 != 3 {
			commitOne(t, c, key(i), "", true)
			delete(model, key(i))
		}
	}
	reader, _ := c.Begin()
	// After the snapshot: new keys, overwrites (including of truncated
	// keys, which recaptures their pre-image) and deletes.
	for i := 0; i < n; i++ {
		switch {
		case i%4 == 3:
			commitOne(t, c, key(i), "late", false)
		case i%6 == 0:
			commitOne(t, c, key(i), "late", false)
		case i%7 == 0:
			commitOne(t, c, key(i), "", true)
		}
	}
	// Own writes straddling chunk boundaries: overwrites, deletes and new
	// keys around every multiple of scanChunk.
	for b := 0; b <= n; b += scanChunk {
		for _, i := range []int{b - 1, b, b + 1} {
			if i < 0 || i >= n {
				continue
			}
			switch i % 3 {
			case 0:
				reader.Write([]byte(key(i)), []byte("own"))
				model[key(i)] = "own"
			case 1:
				reader.Delete([]byte(key(i)))
				delete(model, key(i))
			case 2:
				reader.Write([]byte(key(i)+"o"), []byte("own"))
				model[key(i)+"o"] = "own"
			}
		}
	}
	for _, start := range []string{"", key(1), key(scanChunk), key(2*scanChunk + 5), key(n - 2), "z"} {
		for _, limit := range []int{0, 1, 10, 1000} {
			got := collect(t, reader, start, limit)
			want := model.scan(start, limit)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("scan(%q, %d):\n got %v\nwant %v", start, limit, got, want)
			}
		}
	}
	// A fresh snapshot sees the late commits.
	r2, _ := c.Begin()
	for _, row := range collect(t, r2, key(3), 1) {
		if row != key(3)+"=late" {
			t.Fatalf("fresh scan row = %q", row)
		}
	}
}

// TestScanConcurrentCommits runs snapshot scans against commits that
// create and delete keys, over a data component that holds its lock
// across Scan callbacks. Each scan must return exactly its snapshot's
// rows: none from a later commit, no visible key skipped.
func TestScanConcurrentCommits(t *testing.T) {
	const (
		keys    = 8 * scanChunk
		commits = 1500
	)
	c, err := New(Config{DC: newMassDC(), LogDevice: ssd.New(ssd.SamsungSSD)})
	if err != nil {
		t.Fatal(err)
	}
	key := func(i int) string { return fmt.Sprintf("k%04d", i) }
	// history is the oracle: each key's committed versions, in commit
	// order. Commits and their recording are serialized by histMu, so a
	// snapshot's clock value names a prefix of every list.
	type ver struct {
		ts  uint64
		val string
		del bool
	}
	var histMu sync.Mutex
	history := map[string][]ver{}
	at := func(ts uint64) snapshotModel {
		histMu.Lock()
		defer histMu.Unlock()
		m := snapshotModel{}
		for k, vs := range history {
			for i := len(vs) - 1; i >= 0; i-- {
				if vs[i].ts <= ts {
					if !vs[i].del {
						m[k] = vs[i].val
					}
					break
				}
			}
		}
		return m
	}

	done := make(chan struct{})
	var writers, scanners sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for i := 0; i < commits; i++ {
				histMu.Lock()
				tx, _ := c.Begin()
				var recs []ver
				var ks []string
				for j, n := 0, 1+rng.Intn(3); j < n; j++ {
					k := key(rng.Intn(keys))
					v := ver{val: fmt.Sprintf("w%d.%d", w, i), del: rng.Intn(3) == 0}
					if v.del {
						tx.Delete([]byte(k))
					} else {
						tx.Write([]byte(k), []byte(v.val))
					}
					ks, recs = append(ks, k), append(recs, v)
				}
				err := tx.Commit()
				ts := c.Clock()
				for j, k := range ks {
					recs[j].ts = ts
					// A later write of the same key in this tx wins.
					if vs := history[k]; len(vs) > 0 && vs[len(vs)-1].ts == ts {
						history[k] = vs[:len(vs)-1]
					}
					history[k] = append(history[k], recs[j])
				}
				histMu.Unlock()
				if err != nil {
					t.Errorf("commit: %v", err)
					return
				}
			}
		}(w)
	}
	for s := 0; s < 2; s++ {
		scanners.Add(1)
		go func(s int) {
			defer scanners.Done()
			rng := rand.New(rand.NewSource(int64(s) + 100))
			limits := []int{0, 1, 10, 100}
			for {
				select {
				case <-done:
					return
				default:
				}
				tx, err := c.Begin()
				if err != nil {
					t.Error(err)
					return
				}
				start := key(rng.Intn(keys))
				limit := limits[rng.Intn(len(limits))]
				var got []string
				if err := tx.Scan([]byte(start), limit, func(k, v []byte) bool {
					got = append(got, string(k)+"="+string(v))
					return true
				}); err != nil {
					t.Error(err)
					return
				}
				// Scan twice in one snapshot: commits land in between.
				var again []string
				if err := tx.Scan([]byte(start), limit, func(k, v []byte) bool {
					again = append(again, string(k)+"="+string(v))
					return true
				}); err != nil {
					t.Error(err)
					return
				}
				want := at(tx.beginTS).scan(start, limit)
				tx.Abort()
				if fmt.Sprint(got) != fmt.Sprint(want) || fmt.Sprint(again) != fmt.Sprint(want) {
					t.Errorf("scan(%q, %d) at ts %d:\n got %v\n got %v\nwant %v",
						start, limit, tx.beginTS, got, again, want)
					return
				}
			}
		}(s)
	}
	finished := make(chan struct{})
	go func() {
		writers.Wait()
		close(done)
		scanners.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(60 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("scan-vs-commit wedged:\n%s", buf[:runtime.Stack(buf, true)])
	}
	if c.Stats().Scans.Value() == 0 {
		t.Fatal("no scans ran")
	}
}

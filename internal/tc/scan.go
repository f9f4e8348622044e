package tc

import (
	"bytes"
	"sort"

	"costperf/internal/obs"
)

// Scanner is the optional range-scan capability of a data component.
// The Bw-tree implements it.
type Scanner interface {
	Scan(start []byte, limit int, fn func(key, val []byte) bool) error
}

// scanChunk bounds how many version-store keys one step of a snapshot
// scan collects under tc.mu: the mutex is held for O(log n + scanChunk)
// at a time, however large the version store grows. A scan with fewer
// rows left to visit collects only that many keys per step.
const scanChunk = 64

// rowState is a key's state at a scan's snapshot.
type rowState uint8

const (
	rowVisible rowState = iota // the row's val is the snapshot's value
	rowAbsent                  // the key did not exist at the snapshot
	rowFromDC                  // GC-truncated: the data component holds the pre-image
)

// scanRow is one key decided by the transaction's own writes or the
// version store.
type scanRow struct {
	key, val []byte
	state    rowState
}

// Scan visits key/value pairs visible at the transaction's snapshot in
// ascending key order from start, until fn returns false or limit pairs
// have been visited (limit <= 0 means unlimited). It requires the data
// component to implement Scanner.
//
// The scan merges three sources, newest first: the transaction's own
// writes, the MVCC version store filtered to the snapshot, and the data
// component. DC values are superseded by any version-store entry for the
// same key — including versions newer than the snapshot, whose presence
// means the DC already holds post-snapshot state and the version store is
// the authority for visibility.
//
// The merge runs in chunks. Under tc.mu, the ordered key index is sought
// to the cursor and the snapshot state of the next scanChunk keys is
// collected; the mutex is then released and the DC is scanned up to the
// chunk's last key. Two invariants keep this equivalent to a snapshot of
// the whole version store:
//   - A chunk is collected before the DC reads its range. A DC key in the
//     range that the chunk lacks but the index now holds was therefore
//     first committed after the collection — after the snapshot — and is
//     masked. (Commits index a key before they write it to the DC.)
//   - tc.mu is never taken inside the DC's Scan callback: a data
//     component may hold its own lock across callbacks, while Commit
//     holds tc.mu when it writes to the DC.
//
// Like Read, a scan trusts a GC-truncated key's pre-image in the DC; a
// commit racing the scan on such a key can surface its new value.
func (t *Tx) Scan(start []byte, limit int, fn func(key, val []byte) bool) (err error) {
	if t.done {
		return ErrTxDone
	}
	tc := t.tc
	sp := tc.cfg.Obs.Start(obs.OpScan)
	defer func() { sp.End(err) }()
	sc, ok := tc.cfg.DC.(Scanner)
	if !ok {
		return ErrNoScan
	}
	// The DC walk below always runs, so a snapshot scan escapes the TC's
	// caching tiers by construction.
	sp.Miss()

	visited := 0
	stopped := false
	emit := func(k, v []byte) bool {
		if limit > 0 && visited >= limit || !fn(k, v) {
			stopped = true
			return false
		}
		visited++
		stopped = limit > 0 && visited >= limit
		return !stopped
	}
	own := t.ownRows(start)
	var buf []scanRow
	cursor := start
	for {
		var rows []scanRow
		var end []byte
		n := scanChunk
		if limit > 0 {
			n = min(n, limit-visited)
		}
		buf, end = t.collect(cursor, n, buf[:0])
		rows, own = overlayOwn(buf, own, end)
		// flush emits the chunk's visible rows before k (all when k is nil).
		i := 0
		flush := func(k []byte) bool {
			for ; i < len(rows) && (k == nil || bytes.Compare(rows[i].key, k) < 0); i++ {
				if rows[i].state == rowVisible && !emit(rows[i].key, rows[i].val) {
					return false
				}
			}
			return true
		}
		err = sc.Scan(cursor, 0, func(dk, dv []byte) bool {
			if end != nil && bytes.Compare(dk, end) > 0 {
				return false // the next chunk's range
			}
			if !flush(dk) {
				return false
			}
			if i < len(rows) && bytes.Equal(rows[i].key, dk) {
				r := rows[i]
				i++
				switch r.state {
				case rowAbsent:
					return true
				case rowVisible:
					dv = r.val
				}
			} else if _, ok := tc.index.Get(dk); ok {
				return true // first committed after the chunk was collected
			}
			return emit(dk, dv)
		})
		if err != nil {
			return err
		}
		if stopped || !flush(nil) || end == nil {
			break
		}
		cursor = append(append(make([]byte, 0, len(end)+1), end...), 0)
	}
	tc.stats.Scans.Inc()
	return nil
}

// collect appends to rows the snapshot state of the next n version-store
// keys at or after cursor. end is the last key collected, or nil when the
// index ran out and the chunk reaches the end of the keyspace.
func (t *Tx) collect(cursor []byte, n int, rows []scanRow) (_ []scanRow, end []byte) {
	tc := t.tc
	tc.mu.Lock()
	tc.index.Scan(cursor, n, func(k, _ []byte) bool {
		r := scanRow{key: k, state: rowFromDC}
		if v, decided := tc.mvcc[string(k)].visible(t.beginTS); v != nil && !v.isDelete {
			r.val, r.state = v.val, rowVisible
		} else if decided {
			r.state = rowAbsent
		}
		rows = append(rows, r)
		return true
	})
	tc.mu.Unlock()
	if len(rows) < n {
		return rows, nil
	}
	return rows, rows[len(rows)-1].key
}

// ownRows returns the transaction's buffered writes at or after start, in
// key order.
func (t *Tx) ownRows(start []byte) []scanRow {
	var rows []scanRow
	for _, w := range t.writes {
		if bytes.Compare(w.key, start) < 0 {
			continue
		}
		r := scanRow{key: w.key, val: w.val}
		if w.isDelete {
			r.state = rowAbsent
		}
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool { return bytes.Compare(rows[i].key, rows[j].key) < 0 })
	return rows
}

// overlayOwn merges the own-write rows up to end (all of them when end is
// nil) into a chunk's version-store rows, own writes winning. It returns
// the merged rows and the own writes left for later chunks.
func overlayOwn(rows, own []scanRow, end []byte) (merged, rest []scanRow) {
	n := len(own)
	if end != nil {
		n = sort.Search(len(own), func(i int) bool { return bytes.Compare(own[i].key, end) > 0 })
	}
	if n == 0 {
		return rows, own
	}
	merged = make([]scanRow, 0, len(rows)+n)
	i, j := 0, 0
	for i < len(rows) || j < n {
		var c int
		switch {
		case j == n:
			c = -1
		case i == len(rows):
			c = 1
		default:
			c = bytes.Compare(rows[i].key, own[j].key)
		}
		switch {
		case c < 0:
			merged = append(merged, rows[i])
			i++
		case c > 0:
			merged = append(merged, own[j])
			j++
		default: // same key: the own write wins
			merged = append(merged, own[j])
			i++
			j++
		}
	}
	return merged, own[n:]
}

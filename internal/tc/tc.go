package tc

import (
	"errors"
	"sync"
	"sync/atomic"

	"costperf/internal/fault"
	"costperf/internal/masstree"
	"costperf/internal/metrics"
	"costperf/internal/obs"
	"costperf/internal/recordcache"
	"costperf/internal/sim"
	"costperf/internal/ssd"
)

// DataComponent is the interface the TC requires of its data component
// (the Bw-tree in Deuteronomy). Writes are blind: they must not require
// reading the target page.
type DataComponent interface {
	Get(key []byte) ([]byte, bool, error)
	BlindWrite(key, val []byte) error
	Delete(key []byte) error
}

// Common errors.
var (
	ErrTxDone   = errors.New("tc: transaction already finished")
	ErrConflict = errors.New("tc: write-write conflict")
	ErrClosed   = errors.New("tc: closed")
	ErrNoScan   = errors.New("tc: data component does not support scans")
	// ErrDegraded is returned by commits after a persistent log-device
	// write failure latched the TC read-only (see Stats.Health).
	ErrDegraded = errors.New("tc: degraded (read-only)")
)

// version is one committed value in the MVCC store. The value slices
// alias the recovery-log buffers conceptually: retaining them in memory is
// the paper's "recovery log as record cache".
type version struct {
	val      []byte
	commitTS uint64
	isDelete bool
}

// keyVersions is a key's version list, newest first. truncated records
// that GC dropped older versions — a reader that finds no visible version
// may then fall through to the read cache / data component, whose state is
// exactly the globally visible pre-image. Without the marker, no visible
// version means the key did not exist at the snapshot.
type keyVersions struct {
	vs        []version
	truncated bool
	// droppedAt is the clock value when GC emptied this key's list
	// entirely (vs == nil, truncated == true). The empty marker must
	// survive until every snapshot older than the drop has finished;
	// otherwise a later re-creation of the key would look brand-new to
	// those snapshots and mask the DC's globally visible pre-image.
	droppedAt uint64
}

// visible returns the newest version at or below ts. When there is none,
// decided reports whether the version store still settles the key (it did
// not exist at ts) or GC truncated the list, leaving the data component's
// globally visible pre-image as the answer.
func (kv *keyVersions) visible(ts uint64) (v *version, decided bool) {
	for i := range kv.vs {
		if kv.vs[i].commitTS <= ts {
			return &kv.vs[i], true
		}
	}
	return nil, !kv.truncated
}

// Stats counts TC events.
type Stats struct {
	Begins           metrics.Counter
	Commits          metrics.Counter
	Aborts           metrics.Counter
	Conflicts        metrics.Counter
	VersionStoreHits metrics.Counter // reads served by MVCC versions (log-buffer record cache)
	ReadCacheHits    metrics.Counter // reads served by the read cache
	DCReads          metrics.Counter // reads that had to go to the data component
	VersionsDropped  metrics.Counter // versions reclaimed by GC and trim-on-commit
	Scans            metrics.Counter
	// Retry meters the transient-fault retry budget spent on log I/O.
	Retry metrics.RetryStats
	// Health latches degraded (read-only) after a persistent log failure.
	Health metrics.Health
}

// Config configures a TC.
type Config struct {
	// DC is the data component.
	DC DataComponent
	// LogDevice holds the recovery log (typically a dedicated device or
	// region).
	LogDevice ssd.Dev
	// LogBufferBytes sizes the in-memory recovery-log buffer (default 1 MiB).
	LogBufferBytes int
	// ReadCacheBytes budgets the log-structured read cache (default 4 MiB).
	ReadCacheBytes int64
	// Session enables execution-cost accounting (may be nil).
	Session *sim.Session
	// Retry bounds the backoff loop around log-device I/O; the zero value
	// takes fault.DefaultRetry.
	Retry fault.RetryPolicy
	// Obs, when non-nil, receives one tracing span per transactional
	// read/commit; reads that fall through to the data component are
	// marked as misses. Nil traces nothing at zero cost.
	Obs *obs.Tracer
	// CommitGate, when non-nil, is consulted at the start of every commit;
	// a non-nil return rejects the transaction. Replication installs an
	// epoch fence here so a demoted primary cannot commit after failover.
	CommitGate func() error
	// LogStartLSN positions the recovery log's first append at this device
	// offset instead of 0. A promoted standby continues its shipped log in
	// place, keeping the whole LSN history PITR-addressable.
	LogStartLSN int64
	// InitialClock seeds the commit-timestamp clock (a promoted standby
	// passes the highest timestamp it applied, keeping timestamps
	// monotonic across failover).
	InitialClock uint64
}

// TC is the transaction component. Safe for concurrent use.
type TC struct {
	cfg Config

	clock  atomic.Uint64 // logical timestamp: even granularity is fine
	closed atomic.Bool

	mu   sync.Mutex
	mvcc map[string]*keyVersions
	// index is the ordered set of mvcc's keys, so a snapshot scan seeks to
	// its cursor instead of sorting the whole version store. A key enters
	// both on its first commit. Neither ever drops a key: GC leaves a
	// truncation marker in mvcc rather than deleting the entry.
	index  *masstree.Tree
	active map[uint64]uint64 // txID -> beginTS
	nextTx uint64
	log    *rlog
	rcache *recordcache.Ring
	stats  Stats
}

// New creates a TC over the given data component.
func New(cfg Config) (*TC, error) {
	if cfg.DC == nil {
		return nil, errors.New("tc: nil data component")
	}
	if cfg.LogDevice == nil {
		return nil, errors.New("tc: nil log device")
	}
	if cfg.ReadCacheBytes == 0 {
		cfg.ReadCacheBytes = 4 << 20
	}
	rc, err := recordcache.NewRing(cfg.ReadCacheBytes)
	if err != nil {
		return nil, err
	}
	tc := &TC{
		cfg:    cfg,
		mvcc:   map[string]*keyVersions{},
		index:  masstree.New(nil),
		active: map[uint64]uint64{},
		nextTx: 1,
		rcache: rc,
	}
	tc.log = newRlog(cfg.LogDevice, cfg.LogBufferBytes, cfg.Retry, &tc.stats.Retry, &tc.stats.Health)
	tc.log.start = cfg.LogStartLSN
	tc.clock.Store(cfg.InitialClock)
	// A self-healing log device (ssd.Mirror) escalates unrecoverable
	// dual-leg corruption by latching the TC read-only.
	if ha, ok := cfg.LogDevice.(interface {
		AttachHealth(*metrics.Health)
	}); ok {
		ha.AttachHealth(&tc.stats.Health)
	}
	return tc, nil
}

// Stats returns the TC's counters.
func (tc *TC) Stats() *Stats { return &tc.stats }

// ReadCacheStats exposes the read cache's own counters.
func (tc *TC) ReadCacheStats() *recordcache.Stats { return tc.rcache.Stats() }

// Tx is a transaction handle (snapshot isolation, first-committer-wins).
// A Tx is used by one goroutine.
type Tx struct {
	tc      *TC
	id      uint64
	beginTS uint64
	writes  map[string]redoEntry
	done    bool
}

// Begin starts a transaction reading from the current snapshot.
func (tc *TC) Begin() (*Tx, error) {
	if tc.closed.Load() {
		return nil, ErrClosed
	}
	tc.mu.Lock()
	id := tc.nextTx
	tc.nextTx++
	begin := tc.clock.Load()
	tc.active[id] = begin
	tc.mu.Unlock()
	tc.stats.Begins.Inc()
	return &Tx{tc: tc, id: id, beginTS: begin, writes: map[string]redoEntry{}}, nil
}

func (tc *TC) begin() *sim.Charger {
	if tc.cfg.Session == nil {
		return nil
	}
	return tc.cfg.Session.Begin()
}

// Read returns the value of key visible at the transaction's snapshot.
// The lookup path is the Figure 6 cascade: own writes, MVCC version store
// (recovery-log record cache), read cache, then the data component.
func (t *Tx) Read(key []byte) (_ []byte, _ bool, err error) {
	if t.done {
		return nil, false, ErrTxDone
	}
	tc := t.tc
	sp := tc.cfg.Obs.Start(obs.OpGet)
	defer func() { sp.End(err) }()
	ch := tc.begin()
	if ch != nil {
		ch.Hash()
	}
	// 1. Own writes.
	if w, ok := t.writes[string(key)]; ok {
		if ch != nil {
			ch.Settle()
		}
		if w.isDelete {
			return nil, false, nil
		}
		return w.val, true, nil
	}
	// 2. MVCC version store: newest version with commitTS <= snapshot.
	tc.mu.Lock()
	if kv := tc.mvcc[string(key)]; kv != nil {
		if v, decided := kv.visible(t.beginTS); v != nil {
			val, ok := v.val, !v.isDelete
			tc.mu.Unlock()
			tc.stats.VersionStoreHits.Inc()
			if ch != nil {
				ch.Chase(1)
				ch.Copy(len(val))
				ch.Settle()
			}
			if !ok {
				return nil, false, nil
			}
			return val, true, nil
		} else if decided {
			// Every version postdates the snapshot and nothing was GC'd:
			// the key did not exist at the snapshot.
			tc.mu.Unlock()
			tc.stats.VersionStoreHits.Inc()
			if ch != nil {
				ch.Settle()
			}
			return nil, false, nil
		}
	}
	tc.mu.Unlock()
	// A GC-truncated list's pre-image is globally visible — exactly what
	// the read cache and data component below hold.
	// 3. Read cache.
	if v, ok := tc.rcache.Get(key); ok {
		tc.stats.ReadCacheHits.Inc()
		if ch != nil {
			ch.Hash()
			ch.Copy(len(v))
			ch.Settle()
		}
		return v, true, nil
	}
	// 4. Data component. The TC's own caches all missed; whether the DC
	// itself hits memory is the DC's span to report — from the TC's view
	// this read escaped its caching tiers.
	sp.Miss()
	tc.stats.DCReads.Inc()
	if ch != nil {
		ch.Settle() // the DC charges its own operation
	}
	clockBefore := tc.clock.Load()
	v, ok, err := tc.cfg.DC.Get(key)
	if err != nil {
		return nil, false, err
	}
	if ok && !tc.keyChangedSince(key, clockBefore) {
		// Populate the read cache only if no commit touched the key while
		// the DC read was in flight — otherwise this value may predate a
		// concurrent committer's update and would poison later readers.
		tc.rcache.Add(key, v)
	}
	return v, ok, nil
}

// keyChangedSince reports whether the key gained a version (or lost its
// versions to GC after a commit) after the given clock value.
func (tc *TC) keyChangedSince(key []byte, clock uint64) bool {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	kv := tc.mvcc[string(key)]
	if kv == nil {
		return false
	}
	if len(kv.vs) > 0 && kv.vs[0].commitTS > clock {
		return true
	}
	return kv.truncated && kv.droppedAt > clock
}

// Write buffers an update; it becomes visible at commit.
func (t *Tx) Write(key, val []byte) error {
	if t.done {
		return ErrTxDone
	}
	t.writes[string(key)] = redoEntry{
		key: append([]byte(nil), key...),
		val: append([]byte(nil), val...),
	}
	return nil
}

// Delete buffers a deletion.
func (t *Tx) Delete(key []byte) error {
	if t.done {
		return ErrTxDone
	}
	t.writes[string(key)] = redoEntry{
		key:      append([]byte(nil), key...),
		isDelete: true,
	}
	return nil
}

// Commit validates (first-committer-wins), appends the redo record,
// installs versions, and posts blind updates to the data component.
func (t *Tx) Commit() (err error) {
	if t.done {
		return ErrTxDone
	}
	t.done = true
	tc := t.tc
	sp := tc.cfg.Obs.Start(obs.OpCommit)
	defer func() { sp.End(err) }()
	if tc.closed.Load() {
		return ErrClosed
	}
	if gate := tc.cfg.CommitGate; gate != nil {
		if err := gate(); err != nil {
			tc.mu.Lock()
			delete(tc.active, t.id)
			tc.mu.Unlock()
			tc.stats.Aborts.Inc()
			return err
		}
	}
	tc.mu.Lock()
	delete(tc.active, t.id)
	if len(t.writes) == 0 {
		tc.mu.Unlock()
		tc.stats.Commits.Inc()
		return nil
	}
	// Write-write conflict check: another committer touched our keys
	// after our snapshot.
	for k := range t.writes {
		kv := tc.mvcc[k]
		if kv != nil && len(kv.vs) > 0 && kv.vs[0].commitTS > t.beginTS {
			tc.mu.Unlock()
			tc.stats.Conflicts.Inc()
			tc.stats.Aborts.Inc()
			return ErrConflict
		}
	}
	commitTS := tc.clock.Add(1)
	rec := commitRecord{commitTS: commitTS}
	for _, w := range t.writes {
		rec.entries = append(rec.entries, w)
	}
	// Redo log append, version install, and DC blind updates happen before
	// releasing the commit section: releasing earlier would let a later
	// committer's updates reach the log or the data component first,
	// reordering the durable state against commit timestamps (a lost update
	// once GC makes the DC authoritative). Deuteronomy orders DC updates by
	// timestamp; serializing the post-commit publication is our
	// equivalent. Reads remain concurrent (they take the same mutex only
	// briefly) and the log still group-commits.
	//
	// The log append comes first: if it fails, no version has been
	// installed, so the in-memory state never diverges from what recovery
	// can reconstruct — the transaction simply never committed.
	defer tc.mu.Unlock()
	if err := tc.log.append(rec); err != nil {
		tc.stats.Aborts.Inc()
		return err
	}
	// Trim-on-commit: each installed key keeps only what a live snapshot
	// can still read, so the version store stays at one version per key
	// unless a snapshot is long-lived.
	oldest := tc.oldestSnapshot()
	for _, w := range rec.entries {
		kv := tc.mvcc[string(w.key)]
		if kv == nil {
			kv = &keyVersions{}
			tc.mvcc[string(w.key)] = kv
			tc.index.Put(w.key, nil)
		}
		if len(kv.vs) == 0 && kv.truncated {
			// First commit to a key whose versions were GC-truncated: the
			// pre-image so far lived only in the data component, which
			// this commit is about to overwrite. Re-capture it into the
			// version store (at epoch timestamp 0: visible to every live
			// snapshot, all of which postdate the truncated history) so
			// active snapshots keep reading their view.
			pv, pok, err := tc.cfg.DC.Get(w.key)
			if err != nil {
				return err
			}
			kv.vs = []version{{val: pv, commitTS: 0, isDelete: !pok}}
			kv.truncated = false
		}
		tc.install(kv, version{val: w.val, commitTS: commitTS, isDelete: w.isDelete}, oldest)
	}
	for _, w := range rec.entries {
		tc.rcache.Invalidate(w.key)
		var err error
		if w.isDelete {
			err = tc.cfg.DC.Delete(w.key)
		} else {
			err = tc.cfg.DC.BlindWrite(w.key, w.val)
		}
		if err != nil {
			return err
		}
	}
	tc.stats.Commits.Inc()
	return nil
}

// Abort discards the transaction.
func (t *Tx) Abort() {
	if t.done {
		return
	}
	t.done = true
	tc := t.tc
	tc.mu.Lock()
	delete(tc.active, t.id)
	tc.mu.Unlock()
	tc.stats.Aborts.Inc()
}

// Flush forces the recovery log to the device (group commit).
func (tc *TC) Flush() error { return tc.log.flush() }

// oldestSnapshot returns the begin timestamp of the oldest active
// transaction, or the clock when none is active: no live or future
// snapshot reads below it. The caller holds tc.mu.
func (tc *TC) oldestSnapshot() uint64 {
	oldest := tc.clock.Load()
	for _, begin := range tc.active {
		if begin < oldest {
			oldest = begin
		}
	}
	return oldest
}

// trim drops the versions of kv no snapshot at or after oldest can read:
// it keeps every version newer than oldest plus the newest one at or
// below it. The caller holds tc.mu.
func (tc *TC) trim(kv *keyVersions, oldest uint64) {
	for i, v := range kv.vs {
		if v.commitTS > oldest {
			continue
		}
		if cut := i + 1; cut < len(kv.vs) {
			tc.stats.VersionsDropped.Add(int64(len(kv.vs) - cut))
			clear(kv.vs[cut:]) // release the dropped values
			kv.vs = kv.vs[:cut]
			kv.truncated = true
		}
		return
	}
}

// install makes v, the newest commit, the head of kv's versions and trims
// the list by oldest. When no snapshot predates v, the trim would keep v
// alone, so v overwrites the list in place instead: the steady state of an
// updated key is one version and no allocation per commit. The caller
// holds tc.mu.
func (tc *TC) install(kv *keyVersions, v version, oldest uint64) {
	if v.commitTS <= oldest && len(kv.vs) > 0 {
		tc.stats.VersionsDropped.Add(int64(len(kv.vs)))
		clear(kv.vs)
		kv.vs = append(kv.vs[:0], v)
		kv.truncated = true
		return
	}
	kv.vs = append([]version{v}, kv.vs...)
	tc.trim(kv, oldest)
}

// GC trims versions no active transaction can need by trim's rule, and
// additionally drops keys whose newest version is globally visible
// entirely (the data component holds the value).
func (tc *TC) GC() {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	oldest := tc.oldestSnapshot()
	for _, kv := range tc.mvcc {
		if len(kv.vs) == 0 {
			continue // an existing truncation marker
		}
		if kv.vs[0].commitTS <= oldest {
			// Globally visible: the DC has this value; drop all versions
			// but keep a truncation marker. The marker is what lets a
			// later re-creation of the key be told apart from a
			// brand-new key: without it, a reader whose snapshot predates
			// the re-creation would wrongly see "not found" instead of
			// the DC's globally visible pre-image. Markers are ~48 bytes
			// per ever-written key — the bounded price of blind updates
			// without per-record timestamps in the DC.
			tc.stats.VersionsDropped.Add(int64(len(kv.vs)))
			kv.vs = nil
			kv.truncated = true
			kv.droppedAt = tc.clock.Load()
			continue
		}
		tc.trim(kv, oldest)
	}
}

// VersionCount reports the number of keys with live versions — truncation
// markers left by GC are not counted (for tests and experiments).
func (tc *TC) VersionCount() int {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	n := 0
	for _, kv := range tc.mvcc {
		if len(kv.vs) > 0 {
			n++
		}
	}
	return n
}

// Close flushes the log and closes the TC.
func (tc *TC) Close() error {
	if tc.closed.Swap(true) {
		return nil
	}
	return tc.log.flush()
}

// RecoverResult reports what log replay reconstructed.
type RecoverResult struct {
	// MaxTS is the highest commit timestamp replayed.
	MaxTS uint64
	// Applied is the number of redo entries applied to the data component.
	Applied int
	// Replay summarizes how far the log scan got and why it stopped.
	Replay ReplaySummary
}

// Recover replays a recovery log against a data component, reapplying all
// committed writes in commit order. Redo application uses the same blind
// updates as normal operation — the paper notes there is no difference
// between normal and recovery processing (Section 6.2). The replay summary
// (records applied, truncation offset, stop reason) is logged and returned.
func Recover(logDevice ssd.Dev, dc DataComponent) (RecoverResult, error) {
	return RecoverTo(logDevice, dc, RecoverOpts{})
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

package main

import (
	"context"
	"io"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"costperf/internal/workload"
)

// spec is one workload: a traffic mix against one stack.
type spec struct {
	name    string
	stack   string // engine | wire | standby
	keys    uint64
	getPct  float64
	putPct  float64 // the rest are scans
	zipfian bool    // θ=0.99; uniform otherwise
	scanLen int
	loaders int   // goroutines loading the keyspace
	seed    int64 // the run's --seed
}

// stackSeed seeds the stacks' own jitter (retry backoff, breaker probes).
// It is fixed so that only the inputs vary with --seed.
const stackSeed = 1

var specs = []spec{
	{name: "engine-readmostly", stack: "engine", keys: 200_000, getPct: 94, putPct: 5, zipfian: true, scanLen: 10, loaders: 2},
	{name: "wire-scanmix", stack: "wire", keys: 200_000, getPct: 70, putPct: 25, scanLen: 10, loaders: 2},
	{name: "standby-updateheavy", stack: "standby", keys: 20_000, getPct: 49, putPct: 50, zipfian: true, scanLen: 10, loaders: 16},
}

func findSpec(name string) (spec, bool) {
	for _, w := range specs {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// opGen is one worker's deterministic op stream.
type opGen struct {
	w       spec
	worker  int
	workers int
	rng     *rand.Rand
	keys    workload.KeyChooser
}

func newOpGen(w spec, worker, workers int) *opGen {
	seed := w.seed*1_000_003 + int64(worker)*7919 + 17
	g := &opGen{w: w, worker: worker, workers: workers, rng: rand.New(rand.NewSource(seed))}
	if w.zipfian {
		g.keys = workload.NewZipfian(seed+1, 0.99)
	} else {
		g.keys = workload.NewUniform(seed + 1)
	}
	return g
}

// next draws an op kind and key. Puts land on the worker's own stripe: the
// drawn key rounded into it, so skew carries over to writes.
func (g *opGen) next() (uint8, uint64) {
	p := g.rng.Float64() * 100
	k := g.keys.Next(g.w.keys)
	switch {
	case p < g.w.getPct:
		return oGet, k
	case p < g.w.getPct+g.w.putPct:
		n := uint64(g.workers)
		k = k - k%n + uint64(g.worker)
		if k >= g.w.keys {
			k -= n
		}
		return oPut, k
	default:
		return oScan, k
	}
}

// worker drives one closed loop: it sends its next request only after
// the previous one returned.
type worker struct {
	id    int
	db    kv
	gen   *opGen
	chk   *checker
	tr    *tracer
	ri    reqInfo
	ctx   context.Context
	val   []byte
	kb    [keySize]byte
	lo    []uint64 // acked sequences of the keys a read should return
	rows  [][]byte // a scan's rows, key then value, copied for checking
	nreq  uint64
	lat   [3][]uint32 // get/put/scan latencies, ns (capped at 4.29 s)
	done  atomic.Int64
	fails atomic.Int64
}

func newWorker(id int, db kv, g *opGen, chk *checker, tr *tracer) *worker {
	w := &worker{id: id, db: db, gen: g, chk: chk, tr: tr, val: make([]byte, valueSize), ctx: context.Background()}
	w.ri.worker = int8(id)
	w.rows = make([][]byte, g.w.scanLen+1)
	if tr != nil {
		w.ctx = withReq(w.ctx, &w.ri)
	}
	return w
}

// step runs and checks one op; record keeps its latency.
func (w *worker) step(record bool) {
	kind, k := w.gen.next()
	key := keyBytes(w.kb[:], k)
	var seq uint64
	switch kind {
	case oPut:
		seq = w.chk.nextSeq(w.id)
		encodeValue(w.val, k, seq, byte(w.id))
	case oGet:
		w.lo = append(w.lo[:0], w.chk.acked[k].Load())
	case oScan:
		w.lo = w.lo[:0]
		for i := k; i < k+uint64(w.gen.w.scanLen) && i < w.chk.n; i++ {
			w.lo = append(w.lo, w.chk.acked[i].Load())
		}
	}
	var (
		err   error
		v     []byte
		found bool
		rows  int
	)
	w.nreq++
	t0 := time.Now()
	if w.tr != nil {
		w.ri.req = uint64(w.id+1)<<48 | w.nreq
		w.ri.start = w.tr.now()
		w.tr.begin(w.id, w.ri.req, k, w.ri.start)
	}
	switch kind {
	case oGet:
		v, found, err = w.db.Get(w.ctx, key)
	case oPut:
		err = w.db.Put(w.ctx, key, w.val)
	case oScan:
		err = w.db.Scan(w.ctx, key, w.gen.w.scanLen, func(rk, rv []byte) bool {
			if rows < len(w.rows) {
				w.rows[rows] = append(append(w.rows[rows][:0], rk...), rv...)
			}
			rows++
			return true
		})
	}
	d := time.Since(t0)
	if w.tr != nil {
		w.tr.end(w.id, kind, w.ri.start, w.tr.now())
	}
	switch {
	case kind == oPut:
		w.chk.putDone(k, seq, err)
	case err != nil:
	case kind == oGet:
		w.chk.checkRead(w.id, k, w.lo[0], v, found)
	case rows != len(w.lo):
		w.chk.fail("reader %d: scan from %d returned %d rows, want %d", w.id, k, rows, len(w.lo))
	default:
		for i := 0; i < rows; i++ {
			w.checkRow(k, i, w.rows[i][:len(w.rows[i])-valueSize], w.rows[i][len(w.rows[i])-valueSize:])
		}
	}
	if err != nil {
		w.fails.Add(1)
	} else {
		w.done.Add(1)
	}
	if record {
		ns := d.Nanoseconds()
		if ns > 1<<32-1 {
			ns = 1<<32 - 1
		}
		w.lat[latIndex(kind)] = append(w.lat[latIndex(kind)], uint32(ns))
	}
}

// checkRow judges the i-th row of a scan from start: it must be the next
// dense key, holding a valid value for it.
func (w *worker) checkRow(start uint64, i int, rk, rv []byte) {
	want := start + uint64(i)
	if i >= len(w.lo) || len(rk) != keySize || idOf(rk) != want {
		w.chk.fail("reader %d: scan from %d row %d is key %x, want %d", w.id, start, i, rk, want)
		return
	}
	w.chk.checkRead(w.id, want, w.lo[i], rv, true)
}

func latIndex(kind uint8) int {
	switch kind {
	case oGet:
		return 0
	case oPut:
		return 1
	}
	return 2
}

// window is one slice of a measured phase.
type window struct {
	done int64 // ops completed
	cpu  time.Duration
	wall time.Duration
}

// phase runs every worker until d has passed (or for ops ops each, when
// ops > 0) and returns the wall time it took. A timed phase is cut into
// windows equal slices, each with its completed ops and process CPU time.
func phase(ws []*worker, d time.Duration, ops int, record bool, windows int) (time.Duration, []window) {
	var (
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	done := func() (n int64) {
		for _, w := range ws {
			n += w.done.Load()
		}
		return n
	}
	start := time.Now()
	for _, w := range ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			if ops > 0 {
				for i := 0; i < ops; i++ {
					w.step(record)
				}
				return
			}
			for !stop.Load() {
				w.step(record)
			}
		}(w)
	}
	var wins []window
	if ops == 0 {
		prevT, prevN, prevCPU := start, done(), cpuTime()
		for i := 1; i <= windows; i++ {
			time.Sleep(time.Until(start.Add(d * time.Duration(i) / time.Duration(windows))))
			t, n, c := time.Now(), done(), cpuTime()
			wins = append(wins, window{done: n - prevN, cpu: c - prevCPU, wall: t.Sub(prevT)})
			prevT, prevN, prevCPU = t, n, c
		}
		stop.Store(true)
	}
	wg.Wait()
	return time.Since(start), wins
}

// sweep reads the whole keyspace through db in scans and checks every
// key against its owner's last acked write, and that the keyspace is
// exactly 0..n-1. Every pair read is also written to digest.
func sweep(db kv, chk *checker, digest io.Writer) error {
	const batch = 1000
	var kb [keySize]byte
	next := uint64(0)
	for next < chk.n {
		start := next
		err := db.Scan(context.Background(), keyBytes(kb[:], start), batch, func(rk, rv []byte) bool {
			if len(rk) != keySize || idOf(rk) != next {
				chk.fail("sweep: found key %x, want %d", rk, next)
				return false
			}
			chk.finalValue(next, rv)
			digest.Write(rk)
			digest.Write(rv)
			next++
			return true
		})
		if err != nil {
			return err
		}
		if next == start {
			chk.fail("sweep: keys %d..%d missing", next, chk.n-1)
			break
		}
	}
	return nil
}

// rankIndex is the nearest-rank index of quantile q in n sorted samples.
func rankIndex(n int, q float64) int {
	i := int(q*float64(n)+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// quantile is the q-quantile of the workers' samples, in microseconds. The
// samples are cut into up to windows groups in time order, each with at
// least ten samples beyond the quantile, and the median of the groups'
// quantiles is reported with the number of groups.
func quantile(ws []*worker, kind int, q float64, windows int) (us float64, groups int) {
	n := 0
	for _, w := range ws {
		n += len(w.lat[kind])
	}
	if n == 0 {
		return 0, 0
	}
	groups = int(float64(n) * (1 - q) / 10)
	groups = max(1, min(groups, windows))
	vals := make([]float64, 0, groups)
	var buf []uint32
	for g := 0; g < groups; g++ {
		buf = buf[:0]
		for _, w := range ws {
			l := w.lat[kind]
			buf = append(buf, l[len(l)*g/groups:len(l)*(g+1)/groups]...)
		}
		sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
		vals = append(vals, float64(buf[rankIndex(len(buf), q)])/1e3)
	}
	return median(vals), groups
}

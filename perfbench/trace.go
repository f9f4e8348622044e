package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"costperf/internal/engine"
	"costperf/internal/metrics"
	"costperf/internal/sim"
	"costperf/internal/ssd"
	"costperf/internal/tc"
	"costperf/internal/wire"
)

// The benchmark's tracer. It records one span per call across each public
// seam of the stack, from decorators the benchmark wraps around the
// layers; the program itself is not changed. Each span carries the
// request it belongs to. Where a context crosses the seam (worker or
// wire backend into the engine, engine into its store) the request rides
// in it; where none does (data component, log device, server-side
// backend), the span is attributed to the worker whose in-flight request
// contains it in time, preferring the one for the same key. Spans nothing
// caused (standby apply, the shipper's log reads) are background work.

// Span layers.
const (
	lClient     = iota // a worker's call into the top of the stack
	lBackend           // the wire server's call into the engine
	lStore             // the engine's call into its store
	lDCPrimary         // the TC's call into the primary data component
	lDCStandby         // the standby's call into its data component
	lLogPrimary        // I/O on the primary recovery-log device
	lLogStandby        // I/O on the standby recovery-log device
	nLayers
)

var layerNames = [nLayers]string{"client", "backend", "store", "dc.primary", "dc.standby", "log.primary", "log.standby"}

// Span operations.
const (
	oGet = iota
	oPut
	oScan
	oDelete
	oRead  // device read
	oWrite // device write
	nOps
)

var opNames = [nOps]string{"get", "put", "scan", "delete", "read", "write"}

// span is one recorded call. worker is -1 and req 0 for background work.
type span struct {
	layer, op  uint8
	worker     int8
	req        uint64
	start, end int64 // nanoseconds since the tracer's epoch
}

// maxKeptSpans caps the spans kept for the trace file; aggregates cover
// every span regardless.
const maxKeptSpans = 1 << 18

// slot is one worker's in-flight request, published for attribution.
type slot struct {
	req   atomic.Uint64 // 0 when idle
	start atomic.Int64
	key   atomic.Uint64
}

// agg sums one layer/op cell.
type agg struct {
	n, ns, bytes int64
}

type tracer struct {
	epoch time.Time
	slots []slot

	mu      sync.Mutex
	spans   []span
	dropped int64
	cells   [nLayers][nOps]agg
	waits   []uint32 // engine entry to store entry, ns, per store call

	// Wire connection counters.
	clientReads, clientWrites, serverReads, serverWrites atomic.Int64
	clientBytes                                          atomic.Int64

	dcCalls map[int]int // NewDC calls per shard: the first is the primary
}

func newTracer(workers int) *tracer {
	return &tracer{
		epoch:   time.Now(),
		slots:   make([]slot, workers),
		spans:   make([]span, 0, 1<<16),
		dcCalls: map[int]int{},
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin publishes worker w's request before it enters the stack.
func (t *tracer) begin(w int, req, key uint64, start int64) {
	s := &t.slots[w]
	s.start.Store(start)
	s.key.Store(key)
	s.req.Store(req)
}

// end retires worker w's request and records its client span.
func (t *tracer) end(w int, op uint8, start, end int64) {
	s := &t.slots[w]
	req := s.req.Load()
	s.req.Store(0)
	t.record(span{layer: lClient, op: op, worker: int8(w), req: req, start: start, end: end}, 0)
}

// attribute finds the in-flight request containing a span that started at
// start, preferring one for the same key.
func (t *tracer) attribute(start int64, key uint64, hasKey bool) (int8, uint64) {
	worker, req := int8(-1), uint64(0)
	for w := range t.slots {
		s := &t.slots[w]
		r := s.req.Load()
		if r == 0 || s.start.Load() > start {
			continue
		}
		if hasKey && s.key.Load() == key {
			return int8(w), r
		}
		if worker < 0 {
			worker, req = int8(w), r
		}
	}
	return worker, req
}

func (t *tracer) record(s span, bytes int) {
	t.mu.Lock()
	c := &t.cells[s.layer][s.op]
	c.n++
	c.ns += s.end - s.start
	c.bytes += int64(bytes)
	if len(t.spans) < maxKeptSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

func (t *tracer) cell(layer, op int) agg {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cells[layer][op]
}

// sumNs adds the time of every op of a layer.
func (t *tracer) sumNs(layer int) (n, ns int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, c := range t.cells[layer] {
		n += c.n
		ns += c.ns
	}
	return n, ns
}

// reset drops everything recorded so far (the load and warm-up), keeping
// the shard bookkeeping.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.dropped = 0
	t.cells = [nLayers][nOps]agg{}
	t.waits = t.waits[:0]
	t.mu.Unlock()
	t.clientReads.Store(0)
	t.clientWrites.Store(0)
	t.serverReads.Store(0)
	t.serverWrites.Store(0)
	t.clientBytes.Store(0)
}

// waitP99 is the 99th percentile of engine entry to store entry, in ns.
func (t *tracer) waitP99() float64 {
	t.mu.Lock()
	w := append([]uint32(nil), t.waits...)
	t.mu.Unlock()
	if len(w) == 0 {
		return 0
	}
	sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
	return float64(w[rankIndex(len(w), 0.99)])
}

// writeFile writes the kept spans as CSV.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	b := bufio.NewWriter(f)
	fmt.Fprintln(b, "layer,op,worker,req,start_ns,end_ns")
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(b, "%s,%s,%d,%d,%d,%d\n", layerNames[s.layer], opNames[s.op], s.worker, s.req, s.start, s.end)
	}
	t.mu.Unlock()
	if err := b.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- request identity through contexts ---

type reqKey struct{}

// reqInfo is what a caller of the engine hands down through the context:
// the request and when it entered the engine.
type reqInfo struct {
	worker int8
	req    uint64
	start  int64
}

func withReq(ctx context.Context, ri *reqInfo) context.Context {
	return context.WithValue(ctx, reqKey{}, ri)
}

func reqOf(ctx context.Context) *reqInfo {
	ri, _ := ctx.Value(reqKey{}).(*reqInfo)
	return ri
}

// idOf reads a benchmark key's id (0 for anything else).
func idOf(key []byte) uint64 {
	if len(key) != keySize {
		return 0
	}
	return binary.BigEndian.Uint64(key)
}

// --- engine.Store: the engine's call into masstree ---

type tracedStore struct {
	in engine.Store
	t  *tracer
}

func (s *tracedStore) around(ctx context.Context, op uint8, key []byte, f func() error) error {
	t0 := s.t.now()
	err := f()
	t1 := s.t.now()
	sp := span{layer: lStore, op: op, start: t0, end: t1}
	if ri := reqOf(ctx); ri != nil {
		sp.worker, sp.req = ri.worker, ri.req
		s.t.mu.Lock()
		s.t.waits = append(s.t.waits, uint32(min(t0-ri.start, 1<<32-1)))
		s.t.mu.Unlock()
	} else {
		sp.worker, sp.req = s.t.attribute(t0, idOf(key), true)
	}
	s.t.record(sp, 0)
	return err
}

func (s *tracedStore) Get(ctx context.Context, key []byte) (v []byte, ok bool, err error) {
	err = s.around(ctx, oGet, key, func() error {
		var e error
		v, ok, e = s.in.Get(ctx, key)
		return e
	})
	return v, ok, err
}

func (s *tracedStore) Put(ctx context.Context, key, val []byte) error {
	return s.around(ctx, oPut, key, func() error { return s.in.Put(ctx, key, val) })
}

func (s *tracedStore) Delete(ctx context.Context, key []byte) error {
	return s.around(ctx, oDelete, key, func() error { return s.in.Delete(ctx, key) })
}

func (s *tracedStore) Scan(ctx context.Context, start []byte, limit int, fn func(k, v []byte) bool) error {
	return s.around(ctx, oScan, start, func() error { return s.in.Scan(ctx, start, limit, fn) })
}

func (s *tracedStore) Health() *metrics.Health { return s.in.Health() }
func (s *tracedStore) Close() error            { return s.in.Close() }

// --- wire.Backend: the wire server's call into the engine ---

type tracedBackend struct {
	in wire.Backend
	t  *tracer
}

func (b *tracedBackend) around(ctx context.Context, op uint8, key []byte, f func(context.Context) error) error {
	t0 := b.t.now()
	w, req := b.t.attribute(t0, idOf(key), true)
	err := f(withReq(ctx, &reqInfo{worker: w, req: req, start: t0}))
	b.t.record(span{layer: lBackend, op: op, worker: w, req: req, start: t0, end: b.t.now()}, 0)
	return err
}

func (b *tracedBackend) Get(ctx context.Context, key []byte) (v []byte, ok bool, err error) {
	err = b.around(ctx, oGet, key, func(ctx context.Context) error {
		var e error
		v, ok, e = b.in.Get(ctx, key)
		return e
	})
	return v, ok, err
}

func (b *tracedBackend) Put(ctx context.Context, key, val []byte) error {
	return b.around(ctx, oPut, key, func(ctx context.Context) error { return b.in.Put(ctx, key, val) })
}

func (b *tracedBackend) Delete(ctx context.Context, key []byte) error {
	return b.around(ctx, oDelete, key, func(ctx context.Context) error { return b.in.Delete(ctx, key) })
}

func (b *tracedBackend) Scan(ctx context.Context, start []byte, limit int, fn func(k, v []byte) bool) error {
	return b.around(ctx, oScan, start, func(ctx context.Context) error { return b.in.Scan(ctx, start, limit, fn) })
}

// The server type-asserts these optional capabilities on its backend; a
// decorator that hid them would change what it serves.
type (
	backendAdviser struct {
		*tracedBackend
		wire.Adviser
	}
	backendMapper struct {
		*tracedBackend
		wire.ShardMapper
	}
	backendAdviserMapper struct {
		*tracedBackend
		wire.Adviser
		wire.ShardMapper
	}
)

func (t *tracer) wrapBackend(in wire.Backend) wire.Backend {
	b := &tracedBackend{in: in, t: t}
	adv, isAdv := in.(wire.Adviser)
	mapper, isMapper := in.(wire.ShardMapper)
	switch {
	case isAdv && isMapper:
		return backendAdviserMapper{b, adv, mapper}
	case isAdv:
		return backendAdviser{b, adv}
	case isMapper:
		return backendMapper{b, mapper}
	}
	return b
}

// --- tc.DataComponent: the TC's call into its data component ---

type tracedDC struct {
	in    tc.DataComponent
	t     *tracer
	layer uint8
}

func (d *tracedDC) around(op uint8, key []byte, f func() error) error {
	t0 := d.t.now()
	err := f()
	sp := span{layer: d.layer, op: op, worker: -1, start: t0, end: d.t.now()}
	if d.layer == lDCPrimary {
		sp.worker, sp.req = d.t.attribute(t0, idOf(key), true)
	}
	d.t.record(sp, 0)
	return err
}

func (d *tracedDC) Get(key []byte) (v []byte, ok bool, err error) {
	err = d.around(oGet, key, func() error {
		var e error
		v, ok, e = d.in.Get(key)
		return e
	})
	return v, ok, err
}

func (d *tracedDC) BlindWrite(key, val []byte) error {
	return d.around(oPut, key, func() error { return d.in.BlindWrite(key, val) })
}

func (d *tracedDC) Delete(key []byte) error {
	return d.around(oDelete, key, func() error { return d.in.Delete(key) })
}

// scannerDC forwards tc.Scanner, which the TC type-asserts for snapshot
// scans.
type scannerDC struct {
	*tracedDC
	sc tc.Scanner
}

func (d scannerDC) Scan(start []byte, limit int, fn func(key, val []byte) bool) error {
	return d.around(oScan, start, func() error { return d.sc.Scan(start, limit, fn) })
}

// newDC wraps shard.Config.NewDC: the router builds each replicated
// shard's primary data component first and its standby's second.
func (t *tracer) newDC(inner func(shard int) tc.DataComponent) func(shard int) tc.DataComponent {
	return func(shard int) tc.DataComponent {
		t.mu.Lock()
		layer := uint8(lDCPrimary)
		if t.dcCalls[shard]%2 == 1 {
			layer = lDCStandby
		}
		t.dcCalls[shard]++
		t.mu.Unlock()
		in := inner(shard)
		d := &tracedDC{in: in, t: t, layer: layer}
		if sc, ok := in.(tc.Scanner); ok {
			return scannerDC{d, sc}
		}
		return d
	}
}

// --- ssd.Dev: recovery-log I/O ---

type tracedDev struct {
	ssd.Dev
	t       *tracer
	standby bool
}

func (d *tracedDev) io(op uint8, n int, f func() error) error {
	t0 := d.t.now()
	err := f()
	sp := span{layer: lLogPrimary, op: op, worker: -1, start: t0, end: d.t.now()}
	switch {
	case d.standby:
		sp.layer = lLogStandby
	case op == oWrite:
		// Primary log writes are commit flushes, caused by puts; primary
		// log reads are the shipper's, background.
		sp.worker, sp.req = d.t.attribute(t0, 0, false)
	}
	d.t.record(sp, n)
	return err
}

func (d *tracedDev) WriteAt(off int64, data []byte, ch *sim.Charger) error {
	return d.io(oWrite, len(data), func() error { return d.Dev.WriteAt(off, data, ch) })
}

func (d *tracedDev) ReadAt(off int64, length int, ch *sim.Charger) (out []byte, err error) {
	err = d.io(oRead, length, func() error {
		var e error
		out, e = d.Dev.ReadAt(off, length, ch)
		return e
	})
	return out, err
}

// healthDev forwards AttachHealth, which stores type-assert on their log
// device so a self-healing device can latch them read-only.
type healthDev struct {
	*tracedDev
	ha interface{ AttachHealth(*metrics.Health) }
}

func (d healthDev) AttachHealth(h *metrics.Health) { d.ha.AttachHealth(h) }

// newLog wraps shard.Config.NewLog. The router names standby logs
// "shard<N>-standby-log.<gen>".
func (t *tracer) newLog(inner func(name string) ssd.Dev) func(name string) ssd.Dev {
	return func(name string) ssd.Dev {
		in := inner(name)
		d := &tracedDev{Dev: in, t: t, standby: strings.Contains(name, "standby")}
		if ha, ok := in.(interface{ AttachHealth(*metrics.Health) }); ok {
			return healthDev{d, ha}
		}
		return d
	}
}

// --- net.Conn: wire connections ---

type countedConn struct {
	net.Conn
	reads, writes *atomic.Int64
	bytes         *atomic.Int64 // nil on the server side
}

func (c *countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.reads.Add(1)
	if c.bytes != nil {
		c.bytes.Add(int64(n))
	}
	return n, err
}

func (c *countedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.writes.Add(1)
	if c.bytes != nil {
		c.bytes.Add(int64(n))
	}
	return n, err
}

func (t *tracer) clientConn(c net.Conn) net.Conn {
	return &countedConn{Conn: c, reads: &t.clientReads, writes: &t.clientWrites, bytes: &t.clientBytes}
}

type countedListener struct {
	net.Listener
	t *tracer
}

func (l countedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countedConn{Conn: c, reads: &l.t.serverReads, writes: &l.t.serverWrites}, nil
}

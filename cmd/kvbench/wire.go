// Wire mode: serve a store over the binary protocol (-serve) and drive it
// with a multi-connection load generator (-connect), emitting a
// BENCH_wire.json snapshot so the perf trajectory of the connection path
// is persisted per PR rather than anecdotal.
package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"costperf/internal/core"
	"costperf/internal/engine"
	"costperf/internal/obs"
	"costperf/internal/ssd"
	"costperf/internal/wire"
)

// newWireEngine builds the chosen store behind the engine front-end, the
// backend both wire modes serve. The device runs clean: wire mode measures
// the connection path, not injected device faults. The store is traced
// (internal/obs) so the persisted snapshot carries the live $/op and
// breakeven the matrix snapshots get — one comparable schema.
func newWireEngine(o options) (*engine.Engine, *bench) {
	b := buildStore(storeConfig{name: o.store, pool: o.pool,
		dev: ssd.Config{Name: "dev", MaxIOPS: 1e6, LatencySec: 20e-6}, obs: true})
	fmt.Printf("loading %d keys into %s...\n", o.keys, o.store)
	b.load(o.keys, o.valueSize)
	return b.engine(engine.Config{MaxConcurrent: o.concurrency, MaxQueue: o.queue, DefaultTimeout: o.deadline}), b
}

// runWireServe listens on -serve and serves the store until SIGINT/TERM,
// then drains gracefully: in-flight requests finish and ack before the
// connections close.
func runWireServe(o options) {
	eng, _ := newWireEngine(o)
	srv, err := wire.NewServer(wire.ServerConfig{Backend: eng, MaxInFlight: o.pipeline})
	check(err)
	l, err := net.Listen("tcp", o.serve)
	check(err)
	fmt.Printf("serving %s on %s (pipeline window %d); SIGINT drains\n",
		o.store, l.Addr(), o.pipeline)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Println("draining...")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			fmt.Printf("drain: %v\n", err)
		}
	}()

	check(srv.Serve(l))
	fmt.Printf("server: %s\n", srv.Stats().String())
	check(srv.Close())
	check(eng.Close())
}

// wireBenchSnapshot is the persisted BENCH_wire.json schema.
type wireBenchSnapshot struct {
	Store     string  `json:"store"`
	Conns     int     `json:"conns"`
	Pipeline  int     `json:"pipeline"`
	Mix       string  `json:"mix"`
	Dist      string  `json:"dist"`
	Keys      uint64  `json:"keys"`
	Ops       int     `json:"ops"`
	ElapsedMS float64 `json:"elapsed_ms"`
	OpsPerSec float64 `json:"ops_per_sec"`

	P50Micros float64 `json:"p50_us"`
	P95Micros float64 `json:"p95_us"`
	P99Micros float64 `json:"p99_us"`
	MaxMicros float64 `json:"max_us"`

	Completed int64 `json:"completed"`
	Shed      int64 `json:"shed"`
	Errors    int64 `json:"errors"`

	Retries         int64 `json:"retries"`
	Hedges          int64 `json:"hedges"`
	Reconnects      int64 `json:"reconnects"`
	AttemptTimeouts int64 `json:"attempt_timeouts"`

	Server *wireServerSnapshot `json:"server,omitempty"`

	// Cost is the backing store's traced CostSnapshot priced at paper
	// rates — present when the server ran in-process (-connect self),
	// absent against a remote server whose device we cannot observe.
	// Shared with the matrix and shard snapshots (internal/obs).
	Cost *obs.SnapshotExport `json:"cost,omitempty"`
}

// wireServerSnapshot is attached when the server runs in-process
// (-connect self); against a remote server only client counters persist.
type wireServerSnapshot struct {
	Requests     int64 `json:"requests"`
	Responses    int64 `json:"responses"`
	DedupHits    int64 `json:"dedup_hits"`
	Evicted      int64 `json:"evicted"`
	BadFrames    int64 `json:"bad_frames"`
	InFlightPeak int64 `json:"in_flight_peak"`
}

// runWireLoad drives the workload through -conns wire clients, each
// with -pipeline concurrent requests in flight. "-connect self" spins
// up an in-process server on a loopback listener first, so one command
// exercises the full path.
func runWireLoad(o options) {
	addr := o.connect
	var srv *wire.Server
	var eng *engine.Engine
	var b *bench
	if addr == "self" {
		eng, b = newWireEngine(o)
		var err error
		srv, err = wire.NewServer(wire.ServerConfig{Backend: eng, MaxInFlight: o.pipeline})
		check(err)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		check(err)
		go srv.Serve(l)
		addr = l.Addr().String()
		fmt.Printf("in-process server on %s\n", addr)
	}
	ops := o.opStream()

	clients := make([]*wire.Client, o.conns)
	for i := range clients {
		var err error
		clients[i], err = wire.NewClient(wire.ClientConfig{
			Dial:        func() (net.Conn, error) { return net.Dial("tcp", addr) },
			Seed:        o.seed + int64(i),
			MaxInFlight: o.pipeline,
		})
		check(err)
	}

	fmt.Printf("running %d ops (%s / %s) over %d conns x %d pipeline...\n",
		len(ops), o.mix, o.dist, o.conns, o.pipeline)

	// Each connection takes a contiguous share of the stream and drives it
	// with -pipeline workers, which keep its in-flight window full.
	var t tally
	var wg sync.WaitGroup
	start := time.Now()
	for c, cl := range clients {
		lo, hi := c*len(ops)/len(clients), (c+1)*len(ops)/len(clients)
		wg.Add(1)
		go func() {
			defer wg.Done()
			drive(&t, cl, ops[lo:hi], o.pipeline, driveHooks{})
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	// The wire snapshot has no timeouts column: a deadline miss is an error.
	snap := wireBenchSnapshot{
		Store: o.store, Conns: o.conns, Pipeline: o.pipeline,
		Mix: o.mix, Dist: o.dist, Keys: o.keys, Ops: len(ops),
		ElapsedMS: float64(elapsed.Microseconds()) / 1000,
		OpsPerSec: float64(len(ops)) / elapsed.Seconds(),
		Completed: t.completed.Value(), Shed: t.shed.Value(), Errors: t.timeouts.Value() + t.fails.Value(),
	}
	lat := t.latency.Snapshot()
	snap.P50Micros, snap.P95Micros, snap.P99Micros, snap.MaxMicros = lat.P50, lat.P95, lat.P99, lat.Max
	for _, cl := range clients {
		st := cl.Stats()
		snap.Retries += st.Retries.Value()
		snap.Hedges += st.Hedges.Value()
		snap.Reconnects += st.Reconnects.Value()
		snap.AttemptTimeouts += st.AttemptTimeouts.Value()
		check(cl.Close())
	}
	if srv != nil {
		st := srv.Stats()
		snap.Server = &wireServerSnapshot{
			Requests: st.Requests.Value(), Responses: st.Responses.Value(),
			DedupHits: st.DedupHits.Value(), Evicted: st.Evicted.Value(),
			BadFrames: st.BadFrames.Value(), InFlightPeak: st.InFlightPeak.Value(),
		}
		cost := b.tr.Snapshot().Export(core.PaperCosts())
		snap.Cost = &cost
		check(srv.Close())
		check(eng.Close())
	}

	fmt.Println("\nresults (wire mode, wall-clock):")
	fmt.Printf("  elapsed: %v  (%.0f ops/sec)\n", elapsed.Round(time.Microsecond), snap.OpsPerSec)
	fmt.Printf("  completed=%d shed=%d errors=%d\n", snap.Completed, snap.Shed, snap.Errors)
	fmt.Printf("  latency (us): p50=%.0f p95=%.0f p99=%.0f max=%.0f\n", lat.P50, lat.P95, lat.P99, lat.Max)
	fmt.Printf("  client: retries=%d hedges=%d reconnects=%d attempt-timeouts=%d\n",
		snap.Retries, snap.Hedges, snap.Reconnects, snap.AttemptTimeouts)
	if snap.Server != nil {
		fmt.Printf("  server: req=%d resp=%d dedup=%d evicted=%d bad=%d peak=%d\n",
			snap.Server.Requests, snap.Server.Responses, snap.Server.DedupHits,
			snap.Server.Evicted, snap.Server.BadFrames, snap.Server.InFlightPeak)
	}
	if snap.Cost != nil {
		fmt.Printf("  cost: $/Mop=%.3f breakeven=%.0fs (F=%.4f R=%.1f)\n",
			snap.Cost.DollarPerMop, snap.Cost.BreakevenSec, snap.Cost.F, snap.Cost.R)
	}

	writeBenchSnapshot(benchOutPath(o.benchOut, "wire"), "wire", o.store, map[string]any{
		"keys": o.keys, "ops": o.ops, "mix": o.mix, "dist": o.dist,
		"value_size": o.valueSize, "seed": o.seed,
		"conns": o.conns, "pipeline": o.pipeline,
	}, snap)
}

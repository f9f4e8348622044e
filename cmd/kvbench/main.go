// Command kvbench drives a configurable workload against any of the
// reproduction's stores and reports throughput (in deterministic cost
// units), miss ratios, measured R, and I/O counts — an ad-hoc version of
// the experiments the paper's analysis is built on.
//
// Every mode stands on the same three pieces: one store builder
// (buildStore: device, tracer, store behind engine.Store, every Fold*
// call made once), one op source (options.opStream: generated, replayed,
// or recorded), and one driver (drive: the op stream pre-split
// round-robin across N workers against any wire.Backend — a bare store,
// the engine, a wire client, the shard router, or a replicated cluster).
//
// Usage:
//
//	kvbench -store bwtree -keys 100000 -ops 200000 -mix readmostly -dist zipfian
//	kvbench -store masstree -mix readonly
//	kvbench -store lsm -mix updateheavy -dist hotcold
//	kvbench -store btree -pool 256
//
// With -concurrency N the same workload is driven through the engine
// front-end (internal/engine) by N goroutines: ops take real wall-clock
// latency measurements and the report switches to p50/p95/p99 latency plus
// admission-control counters (shed, timeouts, queue depth). -deadline sets
// the per-op deadline applied by the engine:
//
//	kvbench -store lsm -concurrency 8 -deadline 50ms -faults seed=42,write=0.01
//
// With -standby the workload instead runs through a replicated pair
// (internal/repl): a transaction component whose recovery log is shipped
// to a warm standby, semi-synchronous writes, optional lossy ship link,
// mid-run failover, and post-run point-in-time recovery:
//
//	kvbench -standby -keys 20000 -ops 50000 -net-loss 0.05
//	kvbench -standby -failover -ops 50000            # promote at midpoint
//	kvbench -standby -pitr-lsn 0 -obs                # PITR to the midpoint checkpoint
//
// With -shards N the keyspace is hash-partitioned across N independent
// engine+TC fault domains (internal/shard) and the report includes the
// fleet-level $/op roll-up from per-shard cost snapshots. -migrate
// live-migrates one shard to a new owner at the run's midpoint while the
// load continues:
//
//	kvbench -shards 4 -keys 50000 -ops 100000
//	kvbench -shards 4 -migrate                       # cutover under load
//	kvbench -shards 4 -resize                        # split at 1/3, merge back at 2/3
//	kvbench -shards 4 -rebalance                     # $/op-driven split/merge decisions
//
// With -matrix the named scenario matrix (internal/workload.Scenarios)
// runs scenario x store x concurrency cells through the engine front-end
// and persists one BENCH_matrix.json: throughput, latency percentiles,
// shed/error counts, and the live $/op + five-minute-rule breakeven per
// cell. cmd/benchdiff compares two snapshots and enforces regression
// thresholds — the repo's standing performance record:
//
//	kvbench -matrix all
//	kvbench -matrix hot-zipf,scan-heavy -matrix-stores masstree,lsm,btree -matrix-conc 4,16
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"costperf/internal/core"
	"costperf/internal/engine"
	"costperf/internal/fault"
	"costperf/internal/obs"
	"costperf/internal/sim"
	"costperf/internal/ssd"
	"costperf/internal/workload"
)

// options holds every flag; each mode reads the fields it needs.
type options struct {
	store, mix, dist            string
	keys                        uint64
	ops, valueSize, pool, evict int
	seed                        int64
	record, replay, faults      string
	concurrency, queue          int
	deadline                    time.Duration
	obs, mirror                 bool
	scrubRate                   float64
	standby, failover           bool
	pitrLSN                     int64
	netLoss                     float64
	serve, connect              string
	conns, pipeline             int
	shards                      int
	migrate, resize, rebalance  bool
	benchOut                    string
	matrix, matrixStores, concs string
	overload, overloadStatic    bool
	overloadService             time.Duration
}

func main() {
	var o options
	flag.StringVar(&o.store, "store", "bwtree", "bwtree | masstree | lsm | btree")
	flag.Uint64Var(&o.keys, "keys", 100000, "initial keyspace size")
	flag.IntVar(&o.ops, "ops", 200000, "operations to run")
	flag.StringVar(&o.mix, "mix", "readmostly", "readonly | readmostly | updateheavy | blindheavy | scanmix")
	flag.StringVar(&o.dist, "dist", "zipfian", "uniform | zipfian | hotcold | sequential")
	flag.IntVar(&o.valueSize, "value", 100, "value size in bytes")
	flag.IntVar(&o.pool, "pool", 1024, "btree buffer-pool pages")
	flag.IntVar(&o.evict, "evict", 0, "evict all bwtree pages every N ops (0 = never)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.StringVar(&o.record, "record", "", "record the generated operations to this trace file")
	flag.StringVar(&o.replay, "replay", "", "replay operations from this trace file instead of generating")
	flag.StringVar(&o.faults, "faults", "",
		"deterministic fault-injection spec applied after loading, e.g. seed=42,read=0.001,write=0.001,latency=0.01:0.002 (see internal/fault.ParseSpec)")
	flag.IntVar(&o.concurrency, "concurrency", 0,
		"drive the workload through the engine front-end with N worker goroutines (0 = direct single-threaded mode)")
	flag.DurationVar(&o.deadline, "deadline", 0,
		"per-op deadline applied by the engine (implies -concurrency 1 when unset)")
	flag.IntVar(&o.queue, "queue", 0, "engine admission queue bound (default 2*concurrency)")
	flag.BoolVar(&o.obs, "obs", false,
		"trace every operation and print a per-store cost table (measured F, R, ROPS, IOPS, live $/op and five-minute-rule breakeven)")
	flag.BoolVar(&o.mirror, "mirror", false,
		"run the store on a self-healing mirrored device pair (ssd.Mirror): verified reads, read-repair, quarantine; doubles the SS rent in -obs costs")
	flag.Float64Var(&o.scrubRate, "scrub-rate", 256,
		"background scrubber budget in pages/sec with -mirror (each page costs one read per leg; 0 disables the scrubber)")
	flag.BoolVar(&o.standby, "standby", false,
		"run the workload through a replicated pair (internal/repl): a transaction component whose log is shipped to a warm standby; writes are semi-synchronous")
	flag.BoolVar(&o.failover, "failover", false,
		"with -standby, promote the standby at the run's midpoint (epoch-fences the old primary, run continues on the promoted side)")
	flag.Int64Var(&o.pitrLSN, "pitr-lsn", -1,
		"with -standby, replay the shipped log to this LSN after the run and report the reconstructed state (0 = the midpoint checkpoint, -1 = off)")
	flag.StringVar(&o.serve, "serve", "",
		"serve the store over the wire protocol on this address (e.g. 127.0.0.1:7070)")
	flag.StringVar(&o.connect, "connect", "",
		"drive the workload against a wire server at this address; \"self\" starts one in-process")
	flag.IntVar(&o.conns, "conns", 4, "wire mode: client connections")
	flag.IntVar(&o.pipeline, "pipeline", 16, "wire mode: per-connection in-flight depth")
	flag.IntVar(&o.shards, "shards", 0,
		"partition the keyspace across N independent shard fault domains (internal/shard) and report the fleet $/op roll-up (0 = off)")
	flag.BoolVar(&o.migrate, "migrate", false,
		"with -shards, live-migrate one shard to a new owner at the run's midpoint while the load continues")
	flag.BoolVar(&o.resize, "resize", false,
		"with -shards, split the hottest shard at 1/3 of the run and merge the children back at 2/3, all under load")
	flag.BoolVar(&o.rebalance, "rebalance", false,
		"with -shards, run the $/op-share rebalancer: step at 1/3 and 2/3 and let it split/merge on its own signal")
	flag.StringVar(&o.benchOut, "bench-out", "auto",
		"write the JSON benchmark snapshot here (\"auto\" = BENCH_<mode>.json, empty = skip)")
	flag.Float64Var(&o.netLoss, "net-loss", 0,
		"with -standby, drop/duplicate/reorder each shipped frame with this probability (seeded by -seed)")
	flag.StringVar(&o.matrix, "matrix", "",
		"run the named scenario matrix through the engine front-end and write BENCH_matrix.json: comma-separated scenario names, or \"all\" for the full built-in set (see internal/workload.Scenarios)")
	flag.StringVar(&o.matrixStores, "matrix-stores", "masstree,lsm",
		"matrix mode: comma-separated stores forming the matrix columns")
	flag.StringVar(&o.concs, "matrix-conc", "8",
		"matrix mode: comma-separated worker counts; each adds a grid dimension")
	flag.BoolVar(&o.overload, "overload", false,
		"run the three-phase flash-crowd (baseline -> storm -> recovery) through the adaptive engine and write BENCH_overload.json")
	flag.BoolVar(&o.overloadStatic, "overload-static", false,
		"overload mode: use the fixed-limit engine instead of the adaptive limiter (the comparison the adaptive one exists to win)")
	flag.DurationVar(&o.overloadService, "overload-service", 150*time.Microsecond,
		"overload mode: paced-store per-op service time; the store services 4 ops at once and queues the rest, so in-store latency inflates under pressure (0 = raw store)")
	flag.Parse()

	// Matrix cells and the overload run are many small runs: unless the
	// user sized the run explicitly, use defaults far below the single-run
	// ones.
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	smallRun := func(keys uint64, ops int) {
		if !explicit["keys"] {
			o.keys = keys
		}
		if !explicit["ops"] {
			o.ops = ops
		}
	}

	switch {
	case o.matrix != "":
		smallRun(20000, 30000)
		runMatrixMode(o)
	case o.overload:
		smallRun(20000, 60000)
		if o.concurrency <= 0 {
			o.concurrency = 16
		}
		runOverloadMode(o)
	case o.serve != "":
		runWireServe(o)
	case o.connect != "":
		runWireLoad(o)
	case o.shards > 0:
		runShardMode(o)
	case o.standby:
		runStandbyMode(o)
	default:
		runLocalMode(o)
	}
}

// runLocalMode drives one in-process store: directly and single-threaded
// in deterministic cost units (the default), or, with -concurrency N or
// -deadline, through the engine front-end with N workers and wall-clock
// latencies. Engine mode runs the store without a sim session: concurrent
// workers would race on a shared charger, and the interesting numbers
// there are latency percentiles and shed/timeout counts, not cost units.
func runLocalMode(o options) {
	if o.deadline > 0 && o.concurrency <= 0 {
		o.concurrency = 1
	}
	direct := o.concurrency <= 0
	var sess *sim.Session
	if direct {
		sess = sim.NewSession(sim.DefaultCosts())
	}
	b := buildStore(storeConfig{name: o.store, pool: o.pool, dev: ssd.SamsungSSD,
		mirror: o.mirror, obs: o.obs, sess: sess})

	fmt.Printf("loading %d keys into %s...\n", o.keys, o.store)
	b.load(o.keys, o.valueSize)
	// Install fault injection only for the measured phase: the load above
	// runs clean so every run starts from the same store state.
	if o.faults != "" {
		inj, err := fault.ParseSpec(o.faults)
		check(err)
		b.dev.SetFaultInjector(inj)
		fmt.Printf("injecting faults: %s\n", o.faults)
	}
	if b.mir != nil && o.scrubRate > 0 {
		b.mir.StartScrub(o.scrubRate)
		defer b.mir.StopScrub()
		fmt.Printf("scrubbing at %.0f pages/sec (%.0f IOPS budget)\n", o.scrubRate, 2*o.scrubRate)
	}
	ops := o.opStream()

	var t tally
	if direct {
		fmt.Printf("running %d ops (%s / %s)...\n", len(ops), o.mix, o.dist)
		drive(&t, b.store, ops, 1, driveHooks{after: func(i int, err error) {
			check(err) // direct mode fails fast: an injected fault surfaces here
			if b.bw != nil && o.evict > 0 && i%o.evict == o.evict-1 {
				for _, pid := range b.bw.Pages() {
					check(b.bw.EvictPage(pid, true))
				}
			}
		}})
		tk := sess.Tracker()
		fmt.Println("\nresults (deterministic cost units):")
		fmt.Printf("  %s\n", tk.String())
		fmt.Printf("  throughput: %.6f ops/cost-unit (P0 analogue: %.6f)\n", tk.Throughput(), tk.MMThroughput())
		if tk.R() > 0 {
			fmt.Printf("  measured R = %.2f (paper: 5.8 user-level, ~9 kernel)\n", tk.R())
		}
	} else {
		eng := b.engine(engine.Config{MaxConcurrent: o.concurrency, MaxQueue: o.queue, DefaultTimeout: o.deadline})
		defer func() { check(eng.Close()) }()
		fmt.Printf("running %d ops (%s / %s) with %d workers", len(ops), o.mix, o.dist, o.concurrency)
		if o.deadline > 0 {
			fmt.Printf(", deadline %v", o.deadline)
		}
		fmt.Println("...")
		elapsed := drive(&t, eng, ops, o.concurrency, driveHooks{})

		st := eng.Stats()
		lat := t.latency.Snapshot()
		fmt.Println("\nresults (engine mode, wall-clock):")
		fmt.Printf("  elapsed: %v  (%.0f ops/sec)\n", elapsed.Round(time.Microsecond),
			float64(len(ops))/elapsed.Seconds())
		fmt.Printf("  completed=%d shed=%d timeouts=%d errors=%d\n",
			t.completed.Value(), t.shed.Value(), t.timeouts.Value(), t.fails.Value())
		fmt.Printf("  latency (us): p50=%.0f p95=%.0f p99=%.0f max=%.0f\n", lat.P50, lat.P95, lat.P99, lat.Max)
		qw := st.WaitMicros.Snapshot()
		if qw.Count > 0 {
			fmt.Printf("  queue wait (us): n=%d p50=%d p95=%d p99=%d peak depth=%d\n",
				qw.Count, qw.P50, qw.P95, qw.P99, st.QueuePeak.Value())
		}
		fmt.Printf("  engine: %s\n", st.String())
	}
	fmt.Printf("  device: %s\n", b.dev.Stats().String())
	if b.mir != nil {
		fmt.Printf("  mirror: %s\n", b.mir.MirrorStats().String())
	}
	if direct && o.faults != "" && b.faultReport != nil {
		fmt.Println("fault absorption:")
		b.faultReport()
	}
	printObsTable(b.reg)
}

// printObsTable renders the registry's per-store cost table against the
// paper's rental rates: measured F, R, ROPS, IOPS feed the core model for a
// live $/op and five-minute-rule breakeven (Eq. 7) per store.
func printObsTable(reg *obs.Registry) {
	if reg == nil {
		return
	}
	base := core.PaperCosts()
	fmt.Println("\nobservability (measured model inputs, live costs vs paper rates):")
	fmt.Print(reg.Table(base))
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "kvbench:", err)
		os.Exit(1)
	}
}

// usage reports a bad flag value and exits like flag parsing does.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "kvbench: "+format+"\n", args...)
	os.Exit(2)
}

func pickChooser(dist string, seed int64) workload.KeyChooser {
	switch dist {
	case "uniform":
		return workload.NewUniform(seed)
	case "zipfian":
		return workload.NewZipfian(seed, 0.99)
	case "hotcold":
		return workload.NewHotCold(seed, 0.1, 0.9)
	case "sequential":
		return workload.NewSequential()
	}
	usage("unknown distribution %q", dist)
	return nil
}

func pickMix(name string) workload.Mix {
	mixes := map[string]workload.Mix{
		"readonly":    workload.ReadOnly,
		"readmostly":  workload.ReadMostly,
		"updateheavy": workload.UpdateHeavy,
		"blindheavy":  workload.BlindWriteHeavy,
		"scanmix":     workload.ScanMix,
	}
	mix, ok := mixes[name]
	if !ok {
		usage("unknown mix %q", name)
	}
	return mix
}

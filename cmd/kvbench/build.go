// The one store builder: every kvbench mode that runs a single store
// (direct, engine, wire, matrix, overload) gets its device, tracer and
// store from buildStore and loads it through load; all but direct mode
// then front it with the engine through bench.engine.
package main

import (
	"context"
	"fmt"

	"costperf/internal/btree"
	"costperf/internal/bwtree"
	"costperf/internal/engine"
	"costperf/internal/llama/logstore"
	"costperf/internal/lsm"
	"costperf/internal/masstree"
	"costperf/internal/obs"
	"costperf/internal/sim"
	"costperf/internal/ssd"
	"costperf/internal/wire"
	"costperf/internal/workload"
)

// storeConfig names the store under test and how to build it.
type storeConfig struct {
	name   string
	pool   int        // btree buffer-pool pages
	dev    ssd.Config // the device (one leg of it with mirror)
	mirror bool       // a self-healing mirrored pair instead of one device
	obs    bool       // trace the store and its device
	// sess meters deterministic cost units (direct mode); nil otherwise.
	sess *sim.Session
}

// bench is one built store and what a mode needs around it.
type bench struct {
	dev   ssd.Dev
	mir   *ssd.Mirror   // non-nil with mirror
	reg   *obs.Registry // nil when tracing is off
	tr    *obs.Tracer   // the store's tracer (nil-safe)
	sess  *sim.Session
	store engine.Store
	bw    *bwtree.Tree // the bwtree, for -evict
	// faultReport prints the store's retry/health counters after a
	// -faults run (nil for stores without a retry layer).
	faultReport func()
}

// buildStore constructs the named store on a fresh device, wiring the
// store tracer into the store and device (and, for bwtree, a "log" tracer
// into its logstore) and folding the store's retry and health counters
// into its tracer.
func buildStore(c storeConfig) *bench {
	b := &bench{sess: c.sess}
	if c.mirror {
		b.mir = ssd.NewMirror(c.dev)
		b.dev = b.mir
	} else {
		b.dev = ssd.New(c.dev)
	}
	if c.obs {
		b.reg = obs.NewRegistry()
		b.tr = b.reg.Tracer(c.name)
		b.dev.SetObserver(b.tr)
		if b.mir != nil {
			b.tr.FoldMirror(b.mir.MirrorStats())
		}
	}
	switch c.name {
	case "bwtree":
		st, err := logstore.Open(logstore.Config{Device: b.dev, BufferBytes: 1 << 20, SegmentBytes: 4 << 20,
			Obs: b.tracer("log")})
		check(err)
		tree, err := bwtree.New(bwtree.Config{Store: st, Session: c.sess, Obs: b.tr})
		check(err)
		b.tr.FoldRetries(&tree.Stats().Retry)
		b.tr.FoldHealth(&tree.Stats().Health)
		b.bw, b.store = tree, engine.WrapBwTree(tree)
		if c.sess != nil {
			b.store = bwDirect{b.store, tree}
		}
		b.faultReport = func() {
			fmt.Printf("  bwtree retry: %s, health: %s\n", tree.Stats().Retry.String(), tree.Stats().Health.String())
			fmt.Printf("  logstore retry: %s, health: %s\n", st.Stats().Retry.String(), st.Stats().Health.String())
		}
	case "masstree":
		mt := masstree.New(c.sess)
		mt.SetObs(b.tr)
		b.store = engine.WrapMassTree(mt)
	case "lsm":
		tree, err := lsm.New(lsm.Config{Device: b.dev, Session: c.sess, Obs: b.tr})
		check(err)
		b.tr.FoldRetries(&tree.Stats().Retry)
		b.tr.FoldHealth(&tree.Stats().Health)
		b.store = engine.WrapLSM(tree)
		b.faultReport = func() {
			fmt.Printf("  lsm retry: %s, health: %s\n", tree.Stats().Retry.String(), tree.Stats().Health.String())
		}
	case "btree":
		tree, err := btree.New(btree.Config{Device: b.dev, PoolPages: c.pool, Session: c.sess, Obs: b.tr})
		check(err)
		b.store = engine.WrapBTree(tree)
	default:
		usage("unknown store %q", c.name)
	}
	return b
}

// bwDirect is direct mode's bwtree. engine.WrapBwTree blind-writes every
// Put; direct mode keeps the paper's Section 6.2 contrast instead:
// updates and inserts go through Tree.Insert, which needs the leaf's base
// page in memory, and only blind writes through Tree.BlindWrite.
type bwDirect struct {
	engine.Store
	t *bwtree.Tree
}

func (s bwDirect) Put(ctx context.Context, k, v []byte) error { return s.t.InsertCtx(ctx, k, v) }

func (s bwDirect) BlindWrite(ctx context.Context, k, v []byte) error {
	return s.t.BlindWriteCtx(ctx, k, v)
}

// tracer returns the registry's tracer under name, or nil (tracing off).
func (b *bench) tracer(name string) *obs.Tracer {
	if b.reg == nil {
		return nil
	}
	return b.reg.Tracer(name)
}

// load writes the keyspace clean through the store, then resets every
// meter so the report measures the run, not the load.
func (b *bench) load(keys uint64, valueSize int) {
	load(b.store, keys, valueSize)
	if b.sess != nil {
		b.sess.Tracker().Reset()
	}
	b.dev.Stats().Reset()
	if b.reg != nil {
		b.reg.ResetAll()
	}
}

// engine fronts the store (or cfg.Store, a wrapper over it) with the
// engine, traced under "engine" when tracing is on.
func (b *bench) engine(cfg engine.Config) *engine.Engine {
	if cfg.Store == nil {
		cfg.Store = b.store
	}
	cfg.Obs = b.tracer("engine")
	eng, err := engine.New(cfg)
	check(err)
	return eng
}

// load writes keys [0, keys) with their deterministic values, in order,
// through target.
func load(target wire.Backend, keys uint64, valueSize int) {
	ctx := context.Background()
	for i := uint64(0); i < keys; i++ {
		check(target.Put(ctx, workload.Key(i), workload.ValueFor(i, valueSize)))
	}
}

// The one op source and the one driver every kvbench mode runs its
// workload through.
package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"costperf/internal/engine"
	"costperf/internal/metrics"
	"costperf/internal/repl"
	"costperf/internal/shard"
	"costperf/internal/wire"
	"costperf/internal/workload"
)

// opStream materialises the mix/dist op stream: the trace at -replay, or
// -ops generated operations, recorded to -record when asked.
func (o options) opStream() []workload.Op {
	if o.replay != "" {
		f, err := os.Open(o.replay)
		check(err)
		defer f.Close()
		var ops []workload.Op
		_, err = workload.Replay(f, func(op workload.Op) error {
			ops = append(ops, op)
			return nil
		})
		check(err)
		fmt.Printf("replaying trace %s (%d ops)\n", o.replay, len(ops))
		return ops
	}
	gen, err := workload.NewGenerator(workload.GeneratorConfig{
		Keys: o.keys, ValueSize: o.valueSize,
		Mix: pickMix(o.mix), Chooser: pickChooser(o.dist, o.seed), Seed: o.seed,
	})
	check(err)
	ops := make([]workload.Op, o.ops)
	for i := range ops {
		ops[i] = gen.Next()
	}
	if o.record != "" {
		f, err := os.Create(o.record)
		check(err)
		defer f.Close()
		tw, err := workload.NewTraceWriter(f)
		check(err)
		for _, op := range ops {
			check(tw.Append(op))
		}
		check(tw.Flush())
		fmt.Printf("recorded %d ops to %s\n", tw.Count(), o.record)
	}
	return ops
}

// tally is a driven run's client-side measurement: per-op wall-clock
// latency and every op's outcome. Workers share one tally, and every
// field is safe for concurrent use; completed+shed+timeouts+fails counts
// each op driven exactly once.
type tally struct {
	latency   metrics.Histogram // microseconds, sub-µs resolution
	completed metrics.Counter
	reads     metrics.Counter // the completed gets and scans
	shed      metrics.Counter // refused before running: overload, fenced
	timeouts  metrics.Counter // deadline passed, or the standby ack never came
	fails     metrics.Counter
}

// count classifies one op's outcome.
func (t *tally) count(kind workload.OpKind, err error) {
	switch {
	// A partial scan still delivered the surviving shards' data; the
	// router metered it.
	case err == nil, errors.Is(err, shard.ErrPartialScan):
		t.completed.Inc()
		if kind == workload.OpRead || kind == workload.OpScan {
			t.reads.Inc()
		}
	case errors.Is(err, engine.ErrOverload), errors.Is(err, repl.ErrFenced):
		t.shed.Inc()
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, repl.ErrShipTimeout):
		t.timeouts.Inc()
	default:
		t.fails.Inc()
	}
}

// driveHooks are drive's optional per-op hooks; i is the op's index in
// the slice driven.
type driveHooks struct {
	ctx   func(i int) context.Context // the op's context (default Background)
	after func(i int, err error)      // runs on the op's worker once it returns
}

// blindWriter is the optional target capability that keeps blind writes
// apart from updates (direct-mode bwtree); other targets take both as Put.
type blindWriter interface {
	BlindWrite(ctx context.Context, key, val []byte) error
}

// drive runs ops against target with the given number of workers, timing
// every op and counting its outcome into t, and returns the wall-clock
// time the run took. The ops are pre-split round-robin across the
// workers rather than handed over one shared channel, whose per-op
// handoff would cap the offered concurrency far below the worker count
// for fast stores. With one worker the ops run strictly in order.
func drive(t *tally, target wire.Backend, ops []workload.Op, workers int, h driveHooks) time.Duration {
	workers = max(workers, 1)
	blind, _ := target.(blindWriter)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(ops); i += workers {
				ctx := context.Background()
				if h.ctx != nil {
					ctx = h.ctx(i)
				}
				op := ops[i]
				t0 := time.Now()
				err := apply(ctx, target, blind, op)
				t.latency.Observe(float64(time.Since(t0).Nanoseconds()) / 1e3)
				t.count(op.Kind, err)
				if h.after != nil {
					h.after(i, err)
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// apply issues one op against target.
func apply(ctx context.Context, target wire.Backend, blind blindWriter, op workload.Op) error {
	switch op.Kind {
	case workload.OpRead:
		_, _, err := target.Get(ctx, op.Key)
		return err
	case workload.OpBlindWrite:
		if blind != nil {
			return blind.BlindWrite(ctx, op.Key, op.Value)
		}
		return target.Put(ctx, op.Key, op.Value)
	case workload.OpUpdate, workload.OpInsert:
		return target.Put(ctx, op.Key, op.Value)
	case workload.OpScan:
		return target.Scan(ctx, op.Key, op.ScanLen, func(_, _ []byte) bool { return true })
	case workload.OpDelete:
		return target.Delete(ctx, op.Key)
	}
	return fmt.Errorf("unknown op kind %v", op.Kind)
}

// Shard mode: drive the workload across a hash-partitioned fleet
// (internal/shard) — N engine+TC instances, each its own fault domain —
// and report the fleet-level cost roll-up: per-shard CostSnapshots folded
// into one ops-weighted $/op. With -migrate a live shard migration runs
// at the midpoint while the load continues, exercising the fence/drain/
// cutover path under real traffic.
package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"costperf/internal/core"
	"costperf/internal/obs"
	"costperf/internal/shard"
)

// shardBenchSnapshot is the persisted BENCH_shard.json results block.
type shardBenchSnapshot struct {
	Shards    int     `json:"shards"`
	Ops       int     `json:"ops"`
	ElapsedMS float64 `json:"elapsed_ms"`
	OpsPerSec float64 `json:"ops_per_sec"`

	Completed int64 `json:"completed"`
	Errors    int64 `json:"errors"`

	// Router-level cutover accounting.
	MovedRetries    int64 `json:"moved_retries"`
	CutoverTimeouts int64 `json:"cutover_timeouts"`
	PartialScans    int64 `json:"partial_scans"`
	Fences          int64 `json:"fences"`
	Migrations      int64 `json:"migrations"`
	Splits          int64 `json:"splits"`
	Merges          int64 `json:"merges"`

	// MapEpoch is the placement-map version after the run: 0 means the
	// fleet never resized.
	MapEpoch uint64 `json:"map_epoch"`

	Migration *shardMigrationResult `json:"migration,omitempty"`
	Resize    *shardResizeResult    `json:"resize,omitempty"`
	Rebalance []shardRebalanceStep  `json:"rebalance,omitempty"`

	// Fleet-level $/op and five-minute-rule breakeven (both ops-weighted
	// across shards) plus attribution rows — the same live cost fields
	// the matrix and wire snapshots carry, so all BENCH files compare.
	FleetDollarPerMop float64        `json:"fleet_dollar_per_mop"`
	FleetBreakevenSec float64        `json:"fleet_breakeven_s"`
	FleetOps          int64          `json:"fleet_ops"`
	PerShard          []shardCostRow `json:"per_shard"`
}

// shardMigrationResult records the -migrate cutover. OpsDuring counts
// the ops that completed while it ran: the load it ran under.
type shardMigrationResult struct {
	Shard     int     `json:"shard"`
	ElapsedMS float64 `json:"elapsed_ms"`
	ShipBytes int64   `json:"ship_bytes"`
	Resends   int64   `json:"resends"`
	OpsDuring int64   `json:"ops_during"`
}

// shardResizeResult records the -resize arc: split the hottest shard at
// 1/3 of the run, merge the children back at 2/3, all under load (the
// *OpsDuring fields count the ops that completed while each ran).
type shardResizeResult struct {
	SplitSlot      int     `json:"split_slot"`
	SplitLow       int     `json:"split_low"`
	SplitHigh      int     `json:"split_high"`
	SplitMS        float64 `json:"split_ms"`
	SplitOpsDuring int64   `json:"split_ops_during"`
	MergedTo       int     `json:"merged_to"`
	MergeMS        float64 `json:"merge_ms"`
	MergeOpsDuring int64   `json:"merge_ops_during"`
}

// shardRebalanceStep records one -rebalance Step that acted.
type shardRebalanceStep struct {
	AtOp   int     `json:"at_op"`
	Kind   string  `json:"kind"`
	Slot   int     `json:"slot"`
	With   int     `json:"with"`
	Share  float64 `json:"share"`
	Fair   float64 `json:"fair"`
	Reason string  `json:"reason"`
}

type shardCostRow struct {
	Store        string  `json:"store"`
	Ops          int64   `json:"ops"`
	Errors       int64   `json:"errors"`
	Shed         int64   `json:"shed"`
	DeviceReads  int64   `json:"device_reads"`
	DeviceWrites int64   `json:"device_writes"`
	DollarPerMop float64 `json:"dollar_per_mop"`
	BreakevenSec float64 `json:"breakeven_s"`
}

// runShardMode partitions the keyspace across -shards fault domains and
// drives the workload through the router with concurrent workers. The
// split and the first rebalancer step start at 1/3 of the stream, the
// migration at 1/2, the merge and the second step at 2/3; each runs
// while the workers keep driving the rest, so every cutover happens
// under load.
// Observability is always on here: the fleet $/op roll-up is the result.
func runShardMode(o options) {
	conc := o.concurrency
	if conc <= 0 {
		conc = 4
	}
	reg := obs.NewRegistry()
	r, err := shard.New(shard.Config{
		Shards:   o.shards,
		Registry: reg,
		Seed:     o.seed,
	})
	check(err)
	defer r.Close()

	ctx := context.Background()
	fmt.Printf("loading %d keys across %d shards...\n", o.keys, o.shards)
	load(r, o.keys, o.valueSize)
	reg.ResetAll() // measure the run, not the load
	ops := o.opStream()

	fmt.Printf("running %d ops (%s / %s) over %d shards with %d workers",
		len(ops), o.mix, o.dist, o.shards, conc)
	if o.migrate {
		fmt.Print(", live migration at midpoint")
	}
	if o.resize {
		fmt.Print(", split at 1/3 + merge at 2/3")
	}
	if o.rebalance {
		fmt.Print(", cost-share rebalancer stepping at 1/3 and 2/3")
	}
	fmt.Println("...")

	var reb *shard.Rebalancer
	if o.rebalance {
		reb, err = r.NewRebalancer(shard.RebalanceConfig{Base: core.PaperCosts()})
		check(err)
		// Seed the spend window: the first real Step sees the run's
		// traffic, not the load phase (the registry was just reset).
		_, err = reb.Step(ctx)
		check(err)
	}

	var (
		t        tally
		migRes   *shardMigrationResult
		resRes   *shardResizeResult
		rebSteps []shardRebalanceStep
	)
	stepRebalancer := func(atOp int) {
		act, err := reb.Step(ctx)
		check(err)
		if act == nil {
			fmt.Printf("  rebalancer at op %d: inside the band, no action\n", atOp)
			return
		}
		fmt.Printf("  rebalancer at op %d: %s\n", atOp, act.Reason)
		rebSteps = append(rebSteps, shardRebalanceStep{
			AtOp: atOp, Kind: act.Kind, Slot: act.Slot, With: act.With,
			Share: act.Share, Fair: act.Fair, Reason: act.Reason,
		})
	}
	// run runs one cutover to completion and reports how long it took and
	// how many ops completed meanwhile.
	run := func(action interface{ Run(context.Context) error }) (ms float64, opsDuring int64) {
		c0, t0 := t.completed.Value(), time.Now()
		check(action.Run(ctx))
		return float64(time.Since(t0).Microseconds()) / 1000, t.completed.Value() - c0
	}
	split := func() {
		// Split the shard that carried the most traffic so far.
		hot, hotOps := -1, int64(-1)
		m := r.Map()
		for i, s := range r.LiveSnapshots() {
			if s.Ops > hotOps {
				hot, hotOps = m.Entries[i].Slot, s.Ops
			}
		}
		fmt.Printf("  splitting hottest shard %d under load...\n", hot)
		s, err := r.Split(shard.SplitConfig{Shard: hot})
		check(err)
		resRes = &shardResizeResult{SplitSlot: hot}
		resRes.SplitMS, resRes.SplitOpsDuring = run(s)
		resRes.SplitLow, resRes.SplitHigh = s.Slots()
		fmt.Printf("  split done in %.1fms (children %d, %d; %d ops completed meanwhile)\n",
			resRes.SplitMS, resRes.SplitLow, resRes.SplitHigh, resRes.SplitOpsDuring)
	}
	migrate := func() {
		// Pick a live slot off the current map: with -resize the original
		// slot numbers may already be retired.
		m := r.Map()
		idx := int(o.seed) % len(m.Entries)
		if idx < 0 {
			idx += len(m.Entries)
		}
		moving := m.Entries[idx].Slot
		fmt.Printf("  migrating shard %d under load...\n", moving)
		mg, err := r.Migrate(shard.MigrateConfig{Shard: moving})
		check(err)
		migRes = &shardMigrationResult{Shard: moving}
		migRes.ElapsedMS, migRes.OpsDuring = run(mg)
		migRes.ShipBytes, migRes.Resends = mg.Stats().BytesShipped.Value(), mg.Stats().Resends.Value()
		fmt.Printf("  cutover done in %.1fms (%dB shipped; %d ops completed meanwhile)\n",
			migRes.ElapsedMS, migRes.ShipBytes, migRes.OpsDuring)
	}
	merge := func() {
		fmt.Printf("  merging shards %d+%d back under load...\n", resRes.SplitLow, resRes.SplitHigh)
		mg, err := r.Merge(shard.MergeConfig{Left: resRes.SplitLow, Right: resRes.SplitHigh})
		check(err)
		resRes.MergeMS, resRes.MergeOpsDuring = run(mg)
		resRes.MergedTo = mg.Slot()
		fmt.Printf("  merge done in %.1fms (slot %d; %d ops completed meanwhile)\n",
			resRes.MergeMS, resRes.MergedTo, resRes.MergeOpsDuring)
	}

	// Each boundary's action starts once that many ops have finished, on
	// one action goroutine in boundary order, and runs alongside the rest
	// of the stream.
	type boundary struct {
		at     int
		action func()
	}
	third, half, twoThird := max(len(ops)/3, 1), max(len(ops)/2, 1), max(2*len(ops)/3, 1)
	boundaries := []boundary{
		{third, func() {
			if o.resize {
				split()
			}
			if o.rebalance {
				stepRebalancer(third)
			}
		}},
		{half, func() {
			if o.migrate {
				migrate()
			}
		}},
		{twoThird, func() {
			if o.resize {
				merge()
			}
			if o.rebalance {
				stepRebalancer(twoThird)
			}
		}},
	}
	queue, done := make(chan func(), len(boundaries)), make(chan struct{})
	go func() {
		defer close(done)
		for action := range queue {
			action()
		}
	}()
	var finished atomic.Int64
	start := time.Now()
	drive(&t, r, ops, conc, driveHooks{after: func(int, error) {
		n := int(finished.Add(1))
		for _, b := range boundaries {
			if b.at == n {
				queue <- b.action
			}
		}
	}})
	close(queue)
	<-done
	elapsed := time.Since(start)

	base := core.PaperCosts()
	snaps := r.Snapshots()
	fleet := shard.Rollup(snaps, base)

	rs := r.Stats()
	snap := shardBenchSnapshot{
		Shards: o.shards, Ops: len(ops),
		ElapsedMS: float64(elapsed.Microseconds()) / 1000,
		OpsPerSec: float64(len(ops)) / elapsed.Seconds(),
		// The shard snapshot folds shed and timed-out ops into its errors.
		Completed: t.completed.Value(), Errors: int64(len(ops)) - t.completed.Value(),
		MovedRetries:    rs.MovedRetries.Value(),
		CutoverTimeouts: rs.CutoverTimeouts.Value(),
		PartialScans:    rs.PartialScans.Value(),
		Fences:          rs.Fences.Value(),
		Migrations:      rs.Migrations.Value(),
		Splits:          rs.Splits.Value(),
		Merges:          rs.Merges.Value(),
		MapEpoch:        r.MapEpoch(),
		Migration:       migRes,
		Resize:          resRes,
		Rebalance:       rebSteps,

		FleetDollarPerMop: 1e6 * fleet.DollarPerOp,
		FleetBreakevenSec: fleet.BreakevenSec,
		FleetOps:          fleet.Ops,
	}
	for _, s := range fleet.PerShard {
		row := shardCostRow{
			Store: s.Store, Ops: s.Ops, Errors: s.Errors, Shed: s.Shed,
			DeviceReads: s.DeviceReads, DeviceWrites: s.DeviceWrites,
		}
		// Per-op ratios are undefined for a zero-ops shard (a freshly
		// split child that saw no traffic); leave its row's rates zero.
		if s.Ops > 0 {
			row.DollarPerMop = 1e6 * s.DollarPerOp(base)
			row.BreakevenSec = s.BreakevenInterval(base)
		}
		snap.PerShard = append(snap.PerShard, row)
	}

	fmt.Println("\nresults (shard mode, wall-clock):")
	fmt.Printf("  elapsed: %v  (%.0f ops/sec)\n", elapsed.Round(time.Microsecond), snap.OpsPerSec)
	fmt.Printf("  completed=%d errors=%d\n", snap.Completed, snap.Errors)
	fmt.Printf("  router: moved-retries=%d cutover-timeouts=%d partial-scans=%d fences=%d migrations=%d splits=%d merges=%d epoch=%d\n",
		snap.MovedRetries, snap.CutoverTimeouts, snap.PartialScans, snap.Fences,
		snap.Migrations, snap.Splits, snap.Merges, snap.MapEpoch)
	fmt.Println("\nfleet cost roll-up (measured per-shard model inputs, paper rates):")
	fmt.Print(fleet.Table(base))

	writeBenchSnapshot(benchOutPath(o.benchOut, "shard"), "shard", "tc", map[string]any{
		"shards": o.shards, "migrate": o.migrate,
		"resize": o.resize, "rebalance": o.rebalance,
		"keys": o.keys, "ops": o.ops, "mix": o.mix, "dist": o.dist,
		"value_size": o.valueSize, "seed": o.seed, "concurrency": conc,
	}, snap)
}

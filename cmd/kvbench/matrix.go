// Matrix mode: run the named scenario matrix — scenario x store x
// concurrency cells, every cell the same deterministic op stream per seed
// — through the engine front-end, and persist one BENCH_matrix.json under
// the shared snapshot meta header. Each cell records throughput, latency
// percentiles, shed/error counts, and the live $/op and five-minute-rule
// breakeven from the store's CostSnapshot, so cmd/benchdiff can hold the
// next PR to this PR's numbers.
package main

import (
	"fmt"
	"strconv"
	"strings"

	"costperf/internal/core"
	"costperf/internal/engine"
	"costperf/internal/obs"
	"costperf/internal/ssd"
	"costperf/internal/workload"
)

// matrixCell is one grid point's persisted result.
type matrixCell struct {
	// Key identifies the cell across snapshots: scenario/store/cN.
	// cmd/benchdiff matches rows on it.
	Key         string `json:"key"`
	Scenario    string `json:"scenario"`
	Store       string `json:"store"`
	Concurrency int    `json:"concurrency"`

	Ops       int     `json:"ops"`
	ElapsedMS float64 `json:"elapsed_ms"`
	OpsPerSec float64 `json:"ops_per_sec"`

	P50Micros float64 `json:"p50_us"`
	P95Micros float64 `json:"p95_us"`
	P99Micros float64 `json:"p99_us"`
	MaxMicros float64 `json:"max_us"`

	Completed int64 `json:"completed"`
	Shed      int64 `json:"shed"`
	Timeouts  int64 `json:"timeouts"`
	Errors    int64 `json:"errors"`

	// Cost is the store tracer's snapshot priced at paper rates: measured
	// F/R/ROPS/IOPS and the live $/op + breakeven (internal/obs).
	Cost obs.SnapshotExport `json:"cost"`
}

// matrixBenchResults is the persisted results block of BENCH_matrix.json.
// The scenario definitions ride along so every snapshot is self-describing:
// a cell's numbers can be interpreted without the source tree that made it.
type matrixBenchResults struct {
	ScenarioDefs []workload.Scenario `json:"scenario_defs"`
	Cells        []matrixCell        `json:"cells"`
}

// runMatrixMode resolves the grid and runs it cell by cell.
func runMatrixMode(o options) {
	scenarios := resolveScenarios(o.matrix)
	stores := splitList(o.matrixStores)
	concs := parseConcList(o.concs)
	if len(stores) == 0 || len(concs) == 0 {
		usage("-matrix needs at least one store and one concurrency")
	}

	fmt.Printf("matrix: %d scenarios x %d stores x %d concurrency = %d cells (%d keys / %d ops each, seed %d)\n",
		len(scenarios), len(stores), len(concs), len(scenarios)*len(stores)*len(concs),
		o.keys, o.ops, o.seed)
	for _, sc := range scenarios {
		fmt.Printf("  %s\n", sc.Describe())
	}
	fmt.Println()

	results := matrixBenchResults{ScenarioDefs: scenarios}
	for _, storeName := range stores {
		for _, sc := range scenarios {
			for _, conc := range concs {
				cell := runMatrixCell(sc, storeName, conc, o)
				results.Cells = append(results.Cells, cell)
				fmt.Printf("  %-32s %9.0f ops/s  p99=%7.0fus  shed=%-4d err=%-4d $/Mop=%8.3f be=%.0fs\n",
					cell.Key, cell.OpsPerSec, cell.P99Micros, cell.Shed, cell.Errors,
					cell.Cost.DollarPerMop, cell.Cost.BreakevenSec)
			}
		}
	}

	writeBenchSnapshot(benchOutPath(o.benchOut, "matrix"), "matrix", o.matrixStores, map[string]any{
		"scenarios": scenarioNames(scenarios), "stores": stores, "concurrency": concs,
		"keys": o.keys, "ops": o.ops, "value_size": o.valueSize,
		"pool": o.pool, "seed": o.seed,
	}, results)
}

// runMatrixCell builds a fresh store + engine, loads the keyspace clean,
// then drives the scenario's deterministic op stream with conc workers.
func runMatrixCell(sc workload.Scenario, storeName string, conc int, o options) matrixCell {
	ops, err := workload.GenerateScenario(sc, workload.ScenarioConfig{
		Keys: o.keys, ValueSize: o.valueSize, Ops: o.ops, Seed: o.seed,
	})
	check(err)

	b := buildStore(storeConfig{name: storeName, pool: o.pool, dev: ssd.SamsungSSD, obs: true})
	b.load(o.keys, o.valueSize)
	eng := b.engine(engine.Config{MaxConcurrent: conc})
	var t tally
	elapsed := drive(&t, eng, ops, conc, driveHooks{})
	snap := b.tr.Snapshot()
	check(eng.Close())

	lat := t.latency.Snapshot()
	return matrixCell{
		Key:      fmt.Sprintf("%s/%s/c%d", sc.Name, storeName, conc),
		Scenario: sc.Name, Store: storeName, Concurrency: conc,
		Ops:       len(ops),
		ElapsedMS: float64(elapsed.Microseconds()) / 1000,
		OpsPerSec: float64(len(ops)) / elapsed.Seconds(),
		P50Micros: lat.P50, P95Micros: lat.P95, P99Micros: lat.P99, MaxMicros: lat.Max,
		Completed: t.completed.Value(), Shed: t.shed.Value(),
		Timeouts: t.timeouts.Value(), Errors: t.fails.Value(),
		Cost: snap.Export(core.PaperCosts()),
	}
}

// resolveScenarios expands "-matrix all" or a comma list into scenario
// definitions, rejecting unknown names loudly.
func resolveScenarios(list string) []workload.Scenario {
	if list == "all" {
		return workload.Scenarios()
	}
	var out []workload.Scenario
	for _, name := range splitList(list) {
		sc, ok := workload.ScenarioByName(name)
		if !ok {
			usage("unknown scenario %q (have: %s)", name, strings.Join(workload.ScenarioNames(), ", "))
		}
		out = append(out, sc)
	}
	return out
}

func scenarioNames(scs []workload.Scenario) []string {
	names := make([]string, len(scs))
	for i, sc := range scs {
		names[i] = sc.Name
	}
	return names
}

// splitList splits a comma list, dropping empty elements.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// parseConcList parses the -matrix-conc comma list.
func parseConcList(s string) []int {
	var out []int
	for _, p := range splitList(s) {
		n, err := strconv.Atoi(p)
		if err != nil || n <= 0 {
			usage("bad -matrix-conc element %q", p)
		}
		out = append(out, n)
	}
	return out
}

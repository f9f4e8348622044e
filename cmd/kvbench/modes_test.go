package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the kvbench command: with
// KVBENCH_RUN_MAIN=1 in its environment it runs main on its own
// arguments, so each test below drives one real kvbench process (flag
// parsing, os.Exit on error and all), built with the test's flags — under
// -race too.
func TestMain(m *testing.M) {
	if os.Getenv("KVBENCH_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// kvbench runs one kvbench process and returns its stdout, failing the
// test on a non-zero exit or a race report.
func kvbench(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	// A race-enabled binary otherwise sleeps a second at exit.
	cmd.Env = append(os.Environ(), "KVBENCH_RUN_MAIN=1", "GORACE="+os.Getenv("GORACE")+" atexit_sleep_ms=0")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if err != nil || strings.Contains(stderr.String(), "DATA RACE") {
		t.Fatalf("kvbench %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return stdout.String()
}

// readSnapshot decodes the results block of a BENCH_*.json file.
func readSnapshot(t *testing.T, path string, results any) {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf, &struct {
		Results any `json:"results"`
	}{results}); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// scanLine finds the output line starting with prefix and parses it.
func scanLine(t *testing.T, out, prefix, format string, args ...any) {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if line = strings.TrimSpace(line); strings.HasPrefix(line, prefix) {
			if _, err := fmt.Sscanf(line, format, args...); err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return
		}
	}
	t.Fatalf("no %q line in output:\n%s", prefix, out)
}

// TestDirectModeGolden pins direct mode's deterministic cost-unit report
// (tracker, throughput, R and device lines) for every store and mix
// byte-for-byte. The golden files were captured with the kvbench binary
// from before the store builder replaced the per-store adapters, so this
// is what holds the builder to the old stores' exact operation paths:
// direct-mode bwtree must keep updates on Tree.Insert and only blind
// writes on Tree.BlindWrite (-evict makes the difference show as reads).
// Re-capture only for an intentional cost-model change:
//
//	kvbench -keys 5000 -ops 5000 -value 400 -pool 64 -store S -mix M [-evict 250] |
//	    sed -n '/^results (deterministic cost units):$/,$p' > testdata/direct/S-M[-evict].golden
func TestDirectModeGolden(t *testing.T) {
	type tc struct {
		name string
		args []string
	}
	var cases []tc
	for _, store := range []string{"bwtree", "masstree", "lsm", "btree"} {
		for _, mix := range []string{"readmostly", "updateheavy", "blindheavy", "scanmix"} {
			cases = append(cases, tc{store + "-" + mix, []string{"-store", store, "-mix", mix}})
		}
	}
	cases = append(cases, tc{"bwtree-updateheavy-evict", []string{"-store", "bwtree", "-mix", "updateheavy", "-evict", "250"}})

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out := kvbench(t, append([]string{"-keys", "5000", "-ops", "5000", "-value", "400", "-pool", "64"}, c.args...)...)
			i := strings.Index(out, "results (deterministic cost units):\n")
			if i < 0 {
				t.Fatalf("no cost-unit report in output:\n%s", out)
			}
			want, err := os.ReadFile(filepath.Join("testdata", "direct", c.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if got := out[i:]; got != string(want) {
				t.Errorf("cost-unit report drifted\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

func TestEngineModeDeadline(t *testing.T) {
	out := kvbench(t, "-store", "lsm", "-keys", "2000", "-ops", "4000", "-concurrency", "4", "-deadline", "2s")
	var completed, shed, timeouts, errs int
	scanLine(t, out, "completed=", "completed=%d shed=%d timeouts=%d errors=%d", &completed, &shed, &timeouts, &errs)
	if completed+shed+timeouts+errs != 4000 || errs != 0 {
		t.Fatalf("completed=%d shed=%d timeouts=%d errors=%d, want 4000 ops and no errors", completed, shed, timeouts, errs)
	}
}

func TestWireModeSelf(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_wire.json")
	kvbench(t, "-connect", "self", "-store", "masstree", "-keys", "2000", "-ops", "4000",
		"-conns", "2", "-pipeline", "4", "-bench-out", path)
	var snap wireBenchSnapshot
	readSnapshot(t, path, &snap)
	if snap.Completed+snap.Shed+snap.Errors != 4000 || snap.Errors != 0 {
		t.Fatalf("completed=%d shed=%d errors=%d, want 4000 ops and no errors", snap.Completed, snap.Shed, snap.Errors)
	}
	if snap.Server == nil || snap.Server.Requests < 4000 {
		t.Fatalf("in-process server saw %+v, want >= 4000 requests", snap.Server)
	}
}

// TestMatrixModeOneScenario also pins sub-µs latency resolution: an
// in-memory masstree op through the engine takes well under a
// microsecond, which whole-µs truncation used to record as p50 = 0.
func TestMatrixModeOneScenario(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_matrix.json")
	kvbench(t, "-matrix", "hot-zipf", "-matrix-stores", "masstree", "-matrix-conc", "4",
		"-keys", "2000", "-ops", "4000", "-bench-out", path)
	var res matrixBenchResults
	readSnapshot(t, path, &res)
	if len(res.Cells) != 1 {
		t.Fatalf("got %d cells, want 1", len(res.Cells))
	}
	c := res.Cells[0]
	if c.Completed+c.Shed+c.Timeouts+c.Errors != int64(c.Ops) || c.Ops != 4000 || c.Errors != 0 {
		t.Fatalf("cell %s: ops=%d completed=%d shed=%d timeouts=%d errors=%d", c.Key, c.Ops, c.Completed, c.Shed, c.Timeouts, c.Errors)
	}
	if c.P50Micros <= 0 {
		t.Fatalf("cell %s: p50 = %v us, want a sub-µs reading above zero", c.Key, c.P50Micros)
	}
}

func TestOverloadMode(t *testing.T) {
	for _, static := range []bool{false, true} {
		t.Run(fmt.Sprintf("static=%v", static), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "BENCH_overload.json")
			args := []string{"-overload", "-store", "masstree", "-keys", "2000", "-ops", "6000",
				"-overload-service", "20us", "-bench-out", path}
			if static {
				args = append(args, "-overload-static")
			}
			kvbench(t, args...)
			var res overloadBenchResults
			readSnapshot(t, path, &res)
			if len(res.Phases) != 3 || res.Adaptive == static {
				t.Fatalf("phases=%d adaptive=%v", len(res.Phases), res.Adaptive)
			}
			total := 0
			for _, p := range res.Phases {
				if p.Completed+p.Shed+p.Timeouts+p.Errors != int64(p.Ops) || p.Errors != 0 {
					t.Fatalf("phase %s: ops=%d completed=%d shed=%d timeouts=%d errors=%d",
						p.Name, p.Ops, p.Completed, p.Shed, p.Timeouts, p.Errors)
				}
				total += p.Ops
			}
			if total != 6000 {
				t.Fatalf("phases cover %d ops, want 6000", total)
			}
		})
	}
}

// TestShardModeActionsUnderLoad checks that the split and the migration
// run while ops keep completing. The keys are sequential, so the workers
// always write different keys (a key comes round again only every 5000
// ops): the TC's first-committer-wins conflicts between concurrent
// writers of one hot key cannot occur, and any error is a real one. The
// keyspace is small next to the stream so each cutover, which streams
// its shard's log, is short next to the ops left to overlap it.
func TestShardModeActionsUnderLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_shard.json")
	kvbench(t, "-shards", "4", "-keys", "5000", "-ops", "30000", "-dist", "sequential",
		"-migrate", "-resize", "-rebalance", "-bench-out", path)
	var snap shardBenchSnapshot
	readSnapshot(t, path, &snap)
	if snap.Completed+snap.Errors != 30000 || snap.Errors != 0 {
		t.Fatalf("completed=%d errors=%d, want 30000 ops and no errors", snap.Completed, snap.Errors)
	}
	if snap.Migration == nil || snap.Resize == nil || snap.Migrations != 1 || snap.Merges != 1 {
		t.Fatalf("actions missing: migration=%+v resize=%+v", snap.Migration, snap.Resize)
	}
	// More ops than the 4 workers could have had in flight when an action
	// began: the load kept coming while it ran.
	if snap.Migration.OpsDuring <= 4 || snap.Resize.SplitOpsDuring <= 4 {
		t.Fatalf("ops completed during the migration: %d, during the split: %d; want more than 4 each",
			snap.Migration.OpsDuring, snap.Resize.SplitOpsDuring)
	}
}

func TestStandbyModeFailoverPITR(t *testing.T) {
	out := kvbench(t, "-standby", "-failover", "-pitr-lsn", "0", "-keys", "1000", "-ops", "2000")
	var reads, acked, fenced, timeouts, errs int
	scanLine(t, out, "reads=", "reads=%d acked writes=%d fenced=%d ship-timeouts=%d errors=%d",
		&reads, &acked, &fenced, &timeouts, &errs)
	if reads+acked+fenced+timeouts+errs != 2000 || errs != 0 {
		t.Fatalf("reads=%d acked=%d fenced=%d ship-timeouts=%d errors=%d, want 2000 ops and no errors",
			reads, acked, fenced, timeouts, errs)
	}
	for _, want := range []string{"promoted standby: epoch 2", "PITR: replayed", "reconstructed 1000 keys"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

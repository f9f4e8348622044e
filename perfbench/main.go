// Command perfbench is the repository's benchmark: closed-loop workers
// drive one of three stacks built from the repo's public constructors,
// every answer is checked, and one JSON result line ends the output.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 reports the end-to-end metrics of an untraced run. --trace 1
// runs the same workload untraced and then traced, with the benchmark's
// decorators at every public seam, and reports per-layer metrics plus the
// tracing overhead. See README.md for the workloads and metrics.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	out      string
	setups   int
	workers  int
	ops      int // ops per worker instead of --seconds when nonzero
	warmup   time.Duration
	windows  int // slices of the measured phase whose medians are reported
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds per phase")
	fs.IntVar(&o.trace, "trace", 0, "1 = report per-layer metrics from a traced run")
	fs.StringVar(&o.out, "out", ".bench_build/perfbench", "directory for span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, ok := findSpec(o.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", o.workload)
		return 2
	}
	o.workers = 2
	o.windows = 10
	o.setups = 5
	o.warmup = time.Duration(o.seconds * float64(time.Second) / 10)
	if o.warmup > time.Second {
		o.warmup = time.Second
	}
	res, err := runWorkload(sp, o, stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload runs the phases --trace asks for and assembles the result.
func runWorkload(sp spec, o options, stdout io.Writer) (result, error) {
	sp.seed = o.seed
	fmt.Fprintf(stdout, "workload %s: %s stack, %d keys, %d closed-loop workers, seed %d\n",
		sp.name, sp.stack, sp.keys, o.workers, o.seed)
	if o.trace == 0 {
		m, err := measure(sp, o, nil, nil)
		if err != nil {
			return result{}, err
		}
		m.print(stdout, "untraced")
		return result{Correct: m.correct, Attempted: m.attempted, Failed: m.failed, Metrics: m.endToEnd()}, nil
	}
	o.setups = 1
	plain, err := measure(sp, o, nil, nil)
	if err != nil {
		return result{}, err
	}
	plain.print(stdout, "untraced")
	tr := newTracer(o.workers)
	traced, err := measure(sp, o, tr, nil)
	if err != nil {
		return result{}, err
	}
	traced.print(stdout, "traced")
	path := filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.csv", sp.name, o.seed))
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: span file: %v\n", err)
	} else if err := tr.writeFile(path); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: span file: %v\n", err)
	} else {
		fmt.Fprintf(stdout, "spans: %d kept (%d beyond the cap) in %s\n", len(tr.spans), tr.dropped, path)
	}
	lm := traced.layer
	for k, v := range plain.runtimeMetrics() {
		lm[k] = v
	}
	lm["trace.overhead_frac"] = metric{1 - traced.throughput()/plain.throughput(), "frac"}
	printMetrics(stdout, "per-layer", lm, nil)
	return result{
		Correct:   plain.correct && traced.correct,
		Attempted: plain.attempted + traced.attempted,
		Failed:    plain.failed + traced.failed,
		Metrics:   lm,
	}, nil
}

// measurement is one measured phase and everything derived from it.
type measurement struct {
	correct           bool
	violations        string
	attempted, failed int64
	elapsed           time.Duration
	windows           []window
	setups            []float64
	cpu               time.Duration
	heapBytes         int64
	userBytes         int64
	lat               [3]latency
	mallocs, allocB   uint64
	gcs               uint32
	digest            [32]byte // of the final state, for comparing runs
	server            string
	layer             map[string]metric // traced runs only
}

// Latency quantiles per op kind. gated picks the ones the JSON carries as
// end-to-end metrics; the rest are printed in the report only. p99 moves
// too much from run to run on a shared 2-vCPU machine to gate on. Puts are
// gated at p25, not p50: on the standby stack a put waits for the
// shipper's 50 us poll, which Go's runtime stretches to 1 ms whenever
// every P is idle, so put latency has two modes, and the share of puts in
// the slow one (a fifth to a third here) moves with machine load. The median
// sits at the top of the fast mode and jumps with that share; p25 lies
// inside the fast mode and p95 inside the slow one.
var quantiles = [4]struct {
	name string
	q    float64
}{{"p25", 0.25}, {"p50", 0.5}, {"p95", 0.95}, {"p99", 0.99}}

var gated = [3][2]int{{1, 2}, {0, 2}, {1, 2}} // get, put, scan: indexes into quantiles

type latency struct {
	n      int
	us     [len(quantiles)]float64 // by quantiles
	groups [len(quantiles)]int     // groups each quantile is the median of
}

// throughput is the median over the phase's windows of completed ops per
// second (over the whole phase when it ran a fixed op count).
func (m *measurement) throughput() float64 {
	if len(m.windows) == 0 {
		return float64(m.attempted-m.failed) / m.elapsed.Seconds()
	}
	xs := make([]float64, len(m.windows))
	for i, w := range m.windows {
		xs[i] = float64(w.done) / w.wall.Seconds()
	}
	return median(xs)
}

// cpuPerOp is the median over the windows of process CPU per completed op,
// in microseconds.
func (m *measurement) cpuPerOp() float64 {
	if len(m.windows) == 0 {
		return per(float64(m.cpu.Nanoseconds())/1e3, float64(m.attempted-m.failed))
	}
	xs := make([]float64, len(m.windows))
	for i, w := range m.windows {
		xs[i] = per(float64(w.cpu.Nanoseconds())/1e3, float64(w.done))
	}
	return median(xs)
}

func (m *measurement) endToEnd() map[string]metric {
	ms := map[string]metric{
		"throughput_ops_s":         {m.throughput(), "ops/s"},
		"cpu_us_per_op":            {m.cpuPerOp(), "us"},
		"heap_bytes_per_user_byte": {float64(m.heapBytes) / float64(m.userBytes), "B/B"},
		"setup_s":                  {median(m.setups), "s"},
	}
	for k, op := range opNames[:3] {
		for _, i := range gated[k] {
			ms[op+"_"+quantiles[i].name+"_us"] = metric{m.lat[k].us[i], "us"}
		}
	}
	return ms
}

func (m *measurement) runtimeMetrics() map[string]metric {
	ops := float64(m.attempted)
	return map[string]metric{
		"runtime.allocs_per_op":      {float64(m.mallocs) / ops, "1/op"},
		"runtime.alloc_bytes_per_op": {float64(m.allocB) / ops, "B/op"},
		"runtime.gc_cycles":          {float64(m.gcs), "count"},
	}
}

func (m *measurement) print(w io.Writer, label string) {
	fmt.Fprintf(w, "%s: %d ops attempted, %d failed (failed_frac %g) in %v; checker: %s\n",
		label, m.attempted, m.failed, float64(m.failed)/float64(m.attempted),
		m.elapsed.Round(time.Millisecond), m.violations)
	if m.server != "" {
		fmt.Fprintf(w, "%s: wire server after drain: %s\n", label, m.server)
	}
	n := map[string]string{"setup_s": fmt.Sprintf("median of %d set-ups", len(m.setups))}
	ms := m.endToEnd()
	for k, op := range opNames[:3] {
		l := m.lat[k]
		for i, q := range quantiles {
			name := op + "_" + q.name + "_us"
			n[name] = fmt.Sprintf("n=%d, median of %d groups", l.n, l.groups[i])
			if _, ok := ms[name]; !ok {
				ms[name] = metric{l.us[i], "us"}
				n[name] += ", report only"
			}
		}
	}
	if len(m.windows) > 0 {
		n["throughput_ops_s"] = fmt.Sprintf("median of %d windows", len(m.windows))
		n["cpu_us_per_op"] = n["throughput_ops_s"]
	}
	printMetrics(w, label, ms, n)
}

func printMetrics(w io.Writer, label string, ms map[string]metric, samples map[string]string) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if n, ok := samples[k]; ok {
			fmt.Fprintf(w, "  %s %-28s %14.4f %-6s (%s)\n", label, k, ms[k].Value, ms[k].Unit, n)
		} else {
			fmt.Fprintf(w, "  %s %-28s %14.4f %s\n", label, k, ms[k].Value, ms[k].Unit)
		}
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// measure builds the stack (o.setups times, keeping the last), warms it
// up, runs the measured phase, sweeps the final state and tears the stack
// down. wrap, when set, decorates each worker's client (the checker's own
// tests use it to inject wrong answers).
func measure(sp spec, o options, tr *tracer, wrap func(w int, db kv) kv) (*measurement, error) {
	chk := newChecker(sp.keys, o.workers)
	m := &measurement{userBytes: int64(sp.keys) * userBytesPerKey}
	base := liveHeap()

	var s *stack
	for i := 0; i < o.setups; i++ {
		t0 := time.Now()
		st, err := build(sp, tr, o.workers)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		m.setups = append(m.setups, time.Since(t0).Seconds())
		if i < o.setups-1 {
			if err := st.close(); err != nil {
				return nil, fmt.Errorf("tear-down: %w", err)
			}
			continue
		}
		s = st
	}
	closed := false
	defer func() {
		if !closed {
			s.close()
		}
	}()

	ws := make([]*worker, o.workers)
	for i := range ws {
		db := s.clients[i]
		if wrap != nil {
			db = wrap(i, db)
		}
		ws[i] = newWorker(i, db, newOpGen(sp, i, o.workers), chk, tr)
	}
	seconds := time.Duration(o.seconds * float64(time.Second))
	if o.ops == 0 && o.warmup > 0 {
		phase(ws, o.warmup, 0, false, 1)
	}
	for _, w := range ws {
		w.done.Store(0)
		w.fails.Store(0)
	}
	if tr != nil {
		tr.reset()
	}
	// Every measured phase starts from a collected heap, so the collections
	// inside it fall alike from run to run.
	runtime.GC()
	before := s.counters()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	m.elapsed, m.windows = phase(ws, seconds, o.ops, true, o.windows)
	m.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	after := s.counters()
	m.mallocs, m.allocB, m.gcs = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc, ms1.NumGC-ms0.NumGC

	for _, w := range ws {
		m.attempted += w.done.Load() + w.fails.Load()
		m.failed += w.fails.Load()
	}
	for k := range m.lat {
		l := &m.lat[k]
		for _, w := range ws {
			l.n += len(w.lat[k])
		}
		for i, q := range quantiles {
			l.us[i], l.groups[i] = quantile(ws, k, q.q, o.windows)
		}
	}
	for _, w := range ws {
		w.lat = [3][]uint32{}
	}
	if tr != nil {
		m.layer = layerMetrics(sp, tr, m, before, after)
	}

	digest := sha256.New()
	if err := sweep(s.top, chk, digest); err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	copy(m.digest[:], digest.Sum(nil))
	m.heapBytes = liveHeap() - base
	closed = true
	if err := s.close(); err != nil {
		return nil, fmt.Errorf("tear-down: %w", err)
	}
	if s.srv != nil {
		m.server = s.srv.Stats().String()
	}
	m.violations = chk.report()
	m.correct = chk.violations.Load() == 0
	if m.attempted == 0 {
		return nil, errors.New("no operation attempted")
	}
	return m, nil
}

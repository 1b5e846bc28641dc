// Command perfbench is the repository benchmark. It runs one workload on
// the AutoSynch runtime (the root autosynch package and internal/watchd),
// checks the outcome, and prints one JSON line of metrics:
//
//	go run . --workload pbuf --seed 1 --seconds 28 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run;
// with --trace 1 it reports per-layer metrics, read from spans the
// benchmark records around every public call it makes and from the
// runtime's counters. README.md lists the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// clockEpoch is the origin of every nanosecond timestamp the benchmark
// takes, so latency samples and spans share one monotonic clock.
var clockEpoch = time.Now()

func nanotime() int64 { return int64(time.Since(clockEpoch)) }

// runLimit bounds a whole run; a run that hangs fails instead.
const runLimit = 170 * time.Second

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceDir string // where the traced run writes its spans; none when empty
}

// timed returns the length of the measured phase(s): the whole of
// --seconds for an untraced run, half of it untraced and half traced for
// a traced one.
func (c config) timed() time.Duration {
	d := time.Duration(c.seconds * float64(time.Second))
	if c.trace {
		return d / 2
	}
	return d
}

type workload struct {
	run func(config) (*result, error)
	// procs is the GOMAXPROCS the workload runs with; 0 keeps the
	// default, the CPU count. The closed loops run on one P: their
	// goroutines are parked most of the time, and with a second P every
	// wake-up may hand the woken goroutine to the other vCPU, whose
	// wake-up latency on a shared host moved their throughput by up to
	// a third from run to run. On one P a wake-up is a switch on the same
	// thread, so the figures measure the monitor's own cost per op.
	procs int
}

var workloads = map[string]workload{
	"pbuf":          {func(c config) (*result, error) { return runClosed(c, pbufBuilder(c.seed)) }, 1},
	"pbuf-explicit": {func(c config) (*result, error) { return runClosed(c, pbufExplicitBuilder(c.seed)) }, 1},
	"roundrobin":    {func(c config) (*result, error) { return runClosed(c, roundrobinBuilder(c.seed)) }, 1},
	"watch":         {runWatch, 0},
}

// endToEndNames and perLayerNames are the metric names a run reports with
// --trace 0 and --trace 1; BENCHMARK.json lists the same names.
var endToEndNames = []string{"ops_per_s", "op_p50_ns", "setup_s"}

var perLayerNames = []string{
	"op_p99_us", "cpu_us_per_op",
	"expr.compile_us", "watchd.new_ms", "codegen.served_frac",
	"core.enter_p50_ns", "core.enter_p99_us",
	"core.await_p50_ns", "core.await_p99_us", "core.await_wait_s",
	"core.fastpath_frac", "core.wakeups_per_op", "core.futile_per_wakeup",
	"core.registrations_per_op", "core.reuses_per_op", "core.evictions_per_op",
	"core.exit_p50_ns", "core.exit_p99_us", "core.exit_busy_s",
	"core.evals_per_relay", "core.tagchecks_per_relay",
	"core.signals_per_op", "core.broadcasts_per_op",
	"core.handoff_p50_us", "core.handoff_p99_us", "core.broadcast_p50_ns",
	"core.claims_per_delivery", "core.futile_claims_frac",
	"watchd.publish_p50_ns", "watchd.publish_p99_us",
	"watchd.register_p50_us", "watchd.register_p99_us",
	"watchd.cancel_p50_us", "watchd.renew_p50_ns",
	"watchd.wake_to_claim_p50_us", "watchd.wake_to_claim_p99_us",
	"watchd.deliveries_per_publish",
	"runtime.allocs_per_op", "runtime.bytes_per_op", "runtime.gc_per_kop",
	"bench.gen_late_p50_us", "bench.gen_late_p99_us", "bench.trace_overhead_frac",
}

// metric is one reported number. n is its sample count, or the base
// count of a ratio, and of says what n counts.
type metric struct {
	name  string
	value float64
	unit  string
	n     int64
	of    string
}

// result is a finished run: its metrics, the outcome of its correctness
// checks, and lines of context for the human-readable report.
type result struct {
	attempted, failed int64
	problems          []string // violated correctness checks
	notes             []string
	metrics           []metric
}

func (r *result) add(name string, value float64, unit string, n int64, of string) {
	r.metrics = append(r.metrics, metric{name, value, unit, n, of})
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) failf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// ratio is a/b, or 0 when the base b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// interquartileMean is the mean of the middle half of xs: the values
// left once the lowest and highest quarter (rounded down) are dropped.
func interquartileMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	s = s[len(s)/4 : len(s)-len(s)/4]
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
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

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: pbuf, pbuf-explicit, roundrobin or watch")
	seed := fs.Uint64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 10, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "0 reports end-to-end metrics; 1 reports per-layer metrics from a traced run")
	traceDir := fs.String("trace-dir", "", "directory for the traced run's span file (none when empty)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*workload]
	switch {
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	case *seconds < 0.1 || *seconds > 120:
		fmt.Fprintf(stderr, "perfbench: --seconds must be in [0.1, 120], got %v\n", *seconds)
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, traceDir: *traceDir}

	watchdog := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(stderr, "perfbench: %s did not finish within %v\n", cfg.workload, runLimit)
		os.Exit(1)
	})
	defer watchdog.Stop()

	if wl.procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(wl.procs))
	}
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%g trace=%d gomaxprocs=%d nproc=%d %s\n",
		cfg.workload, cfg.seed, cfg.seconds, *trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	res, err := wl.run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	want := endToEndNames
	if cfg.trace {
		want = perLayerNames
	}
	line, correct, err := res.emit(stdout, want)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	if !correct {
		return 1
	}
	return 0
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// emit prints the human-readable report and returns the JSON result
// line, which carries exactly the metrics named in want, and whether the
// run was correct: every check passed and no operation failed.
func (r *result) emit(w io.Writer, want []string) (string, bool, error) {
	for _, n := range r.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "  %-30s %16.6g %-6s (n=%d %s)\n", m.name, m.value, m.unit, m.n, m.of)
	}
	fmt.Fprintf(w, "  %-30s %16.6g %-6s (n=%d attempted)\n", "failed_frac",
		ratio(float64(r.failed), float64(r.attempted)), "frac", r.attempted)
	for _, p := range r.problems {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", p)
	}
	out := jsonResult{
		Correct:   len(r.problems) == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]jsonMetric, len(want)),
	}
	byName := make(map[string]metric, len(r.metrics))
	for _, m := range r.metrics {
		byName[m.name] = m
	}
	var missing []string
	for _, name := range want {
		m, ok := byName[name]
		if !ok || math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			missing = append(missing, name)
			continue
		}
		out.Metrics[name] = jsonMetric{m.value, m.unit}
	}
	if len(missing) > 0 {
		return "", false, fmt.Errorf("metrics missing or not finite: %s", strings.Join(missing, ", "))
	}
	if r.attempted < 1 {
		return "", false, errors.New("no operation attempted")
	}
	b, err := json.Marshal(out)
	return string(b), out.Correct, err
}

// Command bench is the repository's end-to-end benchmark. One invocation
// runs one workload for a fixed time and prints every metric by name with
// its unit; the last line of standard output is a JSON summary:
//
//	go build -o served ../cmd/served && go run . --workload design-search \
//	    --seed 1 --seconds 20 --trace 0 --root .. --served ./served
//
// bench/run.sh builds both binaries from the checkout and runs this
// command; see README.md for the workloads, the metrics and how to compare
// two commits with bench/cmp.
//
// The benchmark drives the system only through public package functions
// and the real cmd/served binary, and times calls into each layer from
// outside. With --trace 0 it reports the end-to-end metrics; with
// --trace 1 it wraps those calls in spans and reports the per-layer
// metrics instead. Every run also executes the workload's correctness
// oracles: any mismatch marks the run incorrect and the process exits 1.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// metricDef is one reported metric: BENCHMARK.json lists the same names.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run reports. Their meaning per
// workload is documented in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"rss_mb", "MB"},
}

// perLayer are the metrics every traced run reports; a layer a workload
// bypasses reads 0 there.
var perLayer = []metricDef{
	{"trace.overhead_pct", "%"},
	{"trace.coverage_pct", "%"},

	{"design.scen_per_s", "1/s"},
	{"codesign.scen_per_s", "1/s"},
	{"persist.cold_scen_per_s", "1/s"},
	{"persist.warm_scen_per_s", "1/s"},
	{"persist.resume_scen_per_s", "1/s"},
	{"cluster.scen_per_s", "1/s"},
	{"cluster.compute_s", "s"},
	{"cluster.assemble_s", "s"},

	{"wcet.taskset_s", "s"},
	{"wcet.taskset_share", "ratio"},
	{"wcet.framework_s", "s"},

	{"sched.eval_calls", "count"},
	{"sched.eval_us_mean", "us"},

	{"search.points", "count"},
	{"search.pruned", "count"},
	{"search.prune_ratio", "ratio"},
	{"search.self_s", "s"},
	{"search.hybrid_evals", "count"},

	{"engine.class.plain_s", "s"},
	{"engine.class.l2_s", "s"},
	{"engine.class.sporadic_s", "s"},
	{"engine.class.joint_enum_s", "s"},
	{"engine.class.joint_bb_s", "s"},
	{"engine.class.mc3_s", "s"},
	{"engine.class.mc4_s", "s"},
	{"engine.class.apps5_s", "s"},

	{"ctrl.design_calls", "count"},
	{"ctrl.design_ms_p50", "ms"},
	{"ctrl.design_ms_p90", "ms"},
	{"ctrl.busy_s", "s"},
	{"ctrl.share", "ratio"},

	{"evalcache.hit_ratio", "ratio"},
	{"evalcache.disk_hits", "count"},
	{"evalcache.executions", "count"},

	{"parallel.waited", "count"},
	{"parallel.denied", "count"},
	{"parallel.peak_in_flight", "count"},

	{"store.put_calls", "count"},
	{"store.put_us_p50", "us"},
	{"store.put_us_p90", "us"},
	{"store.put_busy_s", "s"},
	{"store.put_bytes", "B"},
	{"store.get_calls", "count"},
	{"store.get_us_p50", "us"},
	{"store.get_busy_s", "s"},
	{"store.get_hit_ratio", "ratio"},
	{"store.ckpt_get_us_p50", "us"},

	{"httpstore.get_calls", "count"},
	{"httpstore.get_ms_p50", "ms"},
	{"httpstore.put_calls", "count"},
	{"httpstore.put_ms_p50", "ms"},
	{"httpstore.busy_s", "s"},
	{"httpstore.retries", "count"},

	{"fabric.acquire_calls", "count"},
	{"fabric.idle_acquires", "count"},
	{"fabric.heartbeat_calls", "count"},
	{"fabric.complete_ms_p50", "ms"},
	{"fabric.journal_appends", "count"},
	{"fabric.journal_fsyncs", "count"},

	{"served.hot_p50_ms", "ms"},
	{"served.hot_p90_ms", "ms"},
	{"served.cold_p50_ms", "ms"},
	{"served.sweep_p50_ms", "ms"},
	{"served.sweep_p90_ms", "ms"},
	{"served.max_ok_rps", "req/s"},
	{"served.design_executions", "count"},
	{"served.design_hit_ratio", "ratio"},
	{"served.gen_late_ms_max", "ms"},
	{"served.inflight_max", "count"},
}

// workload is one named set of generated inputs; README.md and
// BENCHMARK.json say why each was chosen.
type workload struct {
	name string
	run  func(*env) (*result, error)
}

var workloads = []workload{
	{"design-search", runDesign},
	{"codesign-sweep", runCodesign},
	{"persist-sweep", runPersist},
	{"served-mix", runServed},
}

// config is the parsed command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	root     string // repository root: goldens live under it
	served   string // built cmd/served binary
	work     string // scratch directory for stores and journals
	spans    string // optional span dump (traced runs)
}

// env is what a workload run gets: its configuration, the tracer (nil
// when untraced) and the machine's parallelism.
type env struct {
	config
	tr      *tracer
	workers int // nproc: GOMAXPROCS, engine workers and client connections
}

// deadline returns the instant frac of the run's measuring time after now.
func (e *env) deadline(frac float64) time.Time {
	return time.Now().Add(time.Duration(frac * e.seconds * float64(time.Second)))
}

// setups is how many times each workload sets up per run; setup_s is the
// median. Set-ups take milliseconds, so a single one is at the mercy of a
// page fault or a scheduling hiccup.
const setups = 7

// result is what a workload measured.
type result struct {
	setups     []float64 // seconds per set-up
	throughput float64   // operations per second
	latP50     float64   // seconds
	latP90     float64   // seconds
	attempted  int
	failed     int
	problems   []string // oracle mismatches and failed operations
	rssMB      float64  // median resident set of the process doing the work
	layer      map[string]float64
	info       []string
}

func (r *result) problem(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// account counts one closed-loop phase whose operations each carry perOp
// units of work (scenarios) as attempted, and its failures as failed.
func (r *result) account(l *loop, perOp int) {
	r.attempted += l.ops * perOp
	r.failed += l.failed * perOp
	if l.firstErr != nil {
		r.problem("%v", l.firstErr)
	}
}

// suitePass sets the end-to-end metrics from the median latency of every
// unit of a suite that the run repeated pass after pass: a typical pass
// runs ops operations in the summed medians, and the latencies are the
// medians' percentiles.
func (r *result) suitePass(ops int, meds []float64) {
	r.throughput = ratio(float64(ops), sum(meds))
	r.latP50 = percentile(meds, 50)
	r.latP90 = percentile(meds, 90)
}

func (r *result) endToEnd() map[string]float64 {
	return map[string]float64{
		"setup_s":        median(r.setups),
		"throughput":     r.throughput,
		"latency_p50_ms": 1e3 * r.latP50,
		"latency_p90_ms": 1e3 * r.latP90,
		"rss_mb":         r.rssMB,
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	var trace int
	var size string
	fs.StringVar(&c.workload, "workload", "", "workload to run")
	fs.Int64Var(&c.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	fs.Float64Var(&c.seconds, "seconds", 20, "measuring time")
	fs.IntVar(&trace, "trace", 0, "1: trace layer calls and report per-layer metrics")
	fs.StringVar(&size, "size", "full", "work sizes: full | smoke")
	fs.StringVar(&c.root, "root", "..", "repository root")
	fs.StringVar(&c.served, "served", "", "cmd/served binary (persist-sweep, served-mix)")
	fs.StringVar(&c.work, "work", "", "scratch directory (default <root>/.bench_build/work)")
	fs.StringVar(&c.spans, "spans", "", "write the traced run's spans to this JSON file")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	switch {
	case fs.NArg() > 0:
		return c, fmt.Errorf("unexpected arguments %q", fs.Args())
	case trace != 0 && trace != 1:
		return c, fmt.Errorf("--trace must be 0 or 1")
	case size != "full" && size != "smoke":
		return c, fmt.Errorf("--size must be full or smoke")
	case !(c.seconds > 0) || math.IsInf(c.seconds, 0):
		return c, fmt.Errorf("--seconds must be positive")
	}
	c.trace, c.smoke = trace == 1, size == "smoke"
	if c.work == "" {
		c.work = filepath.Join(c.root, ".bench_build", "work")
	}
	return c, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(stderr, "bench:", err)
		}
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", cfg.workload)
		return 2
	}
	e := &env{config: cfg, workers: runtime.GOMAXPROCS(0)}
	if cfg.trace {
		e.tr = newTracer()
	}
	res, err := w.run(e)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if cfg.spans != "" && e.tr != nil {
		if err := e.tr.write(cfg.spans); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	return report(stdout, stderr, e, res)
}

// report prints the metrics as "name value unit" lines followed by the
// JSON summary, and returns the exit code.
func report(stdout, stderr io.Writer, e *env, res *result) int {
	defs, values := endToEnd, res.endToEnd()
	if e.trace {
		defs, values = perLayer, res.layer
	}
	type metricJSON struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{
		Correct:   len(res.problems) == 0 && res.failed == 0 && res.attempted > 0,
		Attempted: max(res.attempted, 1),
		Failed:    res.failed,
		Metrics:   map[string]metricJSON{},
	}
	bw := bufio.NewWriter(stdout)
	fmt.Fprintf(bw, "# workload %s seed %d seconds %g trace %v nproc %d %s\n",
		e.workload, e.seed, e.seconds, e.trace, e.workers, runtime.Version())
	res.info = append(res.info, fmt.Sprintf("set-ups (s): %.4f", res.setups))
	for _, line := range res.info {
		fmt.Fprintf(bw, "# %s\n", line)
	}
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[d.name] = metricJSON{v, d.unit}
		fmt.Fprintf(bw, "%s %s %s\n", d.name, strconv.FormatFloat(v, 'g', -1, 64), d.unit)
	}
	for _, p := range res.problems {
		fmt.Fprintf(stderr, "bench: %s: %s\n", e.workload, p)
	}
	data, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	bw.Write(data)
	bw.WriteString("\n")
	if err := bw.Flush(); err != nil {
		return 1
	}
	if !out.Correct {
		return 1
	}
	return 0
}

// rssMB reads the resident set of a process ("self" or a pid) in MB.
func rssMB(pid string) (float64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmRSS %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc/%s/status", pid)
}

// rssSampler samples a process's resident set while a phase runs. The
// median sample is reported instead of the peak (VmHWM): in a garbage-
// collected process the peak depends on where a collection happened to
// fall, and varied 19-45 MB between identical runs.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
}

func sampleRSS(pid string) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			if mb, err := rssMB(pid); err == nil {
				s.samples = append(s.samples, mb)
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// median stops the sampler and returns the median resident set in MB.
func (s *rssSampler) median() float64 {
	close(s.stop)
	<-s.done
	return median(s.samples)
}

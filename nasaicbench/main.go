// Command nasaicbench is the repository's benchmark. It runs one named
// workload against the nasaic module from the outside — it only calls the
// layers' exported functions — checks the outputs, and prints every metric by
// name with its unit. The last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics.
//
// Run it from the repository root through run.sh, which builds this package
// from source first:
//
//	bash nasaicbench/run.sh --workload explore-rl-w3 --seed 1 --seconds 20 --trace 0
//	bash nasaicbench/run.sh --workload explore-ea-w1 --seed 1 --seconds 20 --trace 1
//	bash nasaicbench/run.sh --workload serve-short-jobs --seed 1 --cpuprofile cpu.out
//	bash nasaicbench/run.sh --describe > BENCHMARK.json
//
// --trace 0 measures untraced runs and prints the end-to-end metrics. --trace
// 1 pairs each untraced run with a traced one that drives the same work
// through the layers' public functions, timing every call, and prints the
// per-layer metrics. README.md lists the metrics, the end-to-end metric each
// layer metric should move, and the counts that must repeat exactly.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"time"
)

// runSeconds is the measured window of one run, as BENCHMARK.json states it.
const runSeconds = 20

// benchWorkload is one traffic mix the benchmark can run.
type benchWorkload struct {
	name string
	why  string
	run  func(*runEnv) (*outcome, error)
}

var workloads = []benchWorkload{
	{
		name: "explore-rl-w3",
		why:  "paper RL co-exploration on W3 (phi=10, refine, cold caches): controller-bound, so rl/nn changes show and evaluator changes barely do",
		run:  exploreRLW3.bench,
	},
	{
		name: "explore-ea-w1",
		why:  "EA co-exploration on W1 (CIFAR-10 + Nuclei UNet shapes), cold caches: no controller, nearly all time in signature, cost model, HAP, predictor",
		run:  exploreEAW1.bench,
	},
	{
		name: "serve-short-jobs",
		why:  "in-process nasaicd, durable journal, 2 tenants in a closed loop of 2 clients on short W3 jobs, a fresh seed each: admission, auth, fsyncs, SSE show",
		run:  benchServe,
	},
}

// metric is one BENCHMARK.json metric entry. Bound is set for end-to-end
// metrics only.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user sees, measured on untraced runs. Every
// workload reports all of them; README.md gives each one's meaning per
// workload.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"explore_s", "s", "lower", 0.25},
	{"jobs_per_s", "1/s", "higher", 0.25},
	{"alloc_mb", "MB", "lower", 0.10},
	{"ok_pct", "%", "higher", 0.01},
}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reads 0. Counts with unit "count.exact" repeat exactly for a given
// seed: drift in one of them means the program's behaviour changed.
var perLayer = []metric{
	{"rl.sample_ms", "ms", "lower", 0},
	{"rl.accumulate_ms", "ms", "lower", 0},
	{"rl.update_ms", "ms", "lower", 0},
	{"rl.rollouts", "count.exact", "lower", 0},
	{"core.hw_eval_ms", "ms", "lower", 0},
	{"core.hw_requests", "count", "lower", 0},
	{"core.hw_evals", "count.exact", "lower", 0},
	{"core.hw_hit_us", "us", "lower", 0},
	{"core.hw_miss_us", "us", "lower", 0},
	{"core.hw_dedup", "count", "higher", 0},
	{"evalcache.hit_pct", "%", "higher", 0},
	{"dnn.signature_us", "us", "lower", 0},
	{"dnn.signature_calls", "count", "lower", 0},
	{"dnn.decode_ms", "ms", "lower", 0},
	{"accel.decode_ms", "ms", "lower", 0},
	{"maestro.cost_table_ms", "ms", "lower", 0},
	{"maestro.layer_requests", "count.exact", "lower", 0},
	{"maestro.layer_hit_pct", "%", "higher", 0},
	{"sched.hap_ms", "ms", "lower", 0},
	{"sched.hap_solves", "count", "lower", 0},
	{"core.accuracy_ms", "ms", "lower", 0},
	{"predictor.trainings", "count.exact", "lower", 0},
	{"core.penalty_ms", "ms", "lower", 0},
	{"ea.breed_ms", "ms", "lower", 0},
	{"core.refine_ms", "ms", "lower", 0},
	{"nasaic.first_event_ms", "ms", "lower", 0},
	{"core.refine_hw_requests", "count", "lower", 0},
	{"jobs.ttr_ms", "ms", "lower", 0},
	{"jobs.exec_ms", "ms", "lower", 0},
	{"jobs.sse_done_lag_ms", "ms", "lower", 0},
	{"jobs.sse_frames", "count/job", "lower", 0},
	{"jobs.sse_bytes", "B/job", "lower", 0},
	{"jobs.job_p95_ms", "ms", "lower", 0},
	{"jobs.submit_p50_ms", "ms", "lower", 0},
	{"jobs.submit_p95_ms", "ms", "lower", 0},
	{"jobs.samples", "count", "higher", 0},
	{"jobs.hw_cache_hit_pct", "%", "higher", 0},
	{"jobs.layer_hit_pct", "%", "higher", 0},
	{"jobs.trainings", "count/job", "lower", 0},
	{"journal.fsyncs_per_job", "count/job", "lower", 0},
	{"journal.fsync_us", "us", "lower", 0},
	{"journal.writes", "count/job", "lower", 0},
	{"journal.write_bytes_per_job", "B/job", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
	{"trace.unaccounted_pct", "%", "lower", 0},
	{"host.nproc", "count", "higher", 0},
	{"host.gomaxprocs", "count", "higher", 0},
	{"host.avx", "bool", "higher", 0},
	{"host.tmp_fsync_us", "us", "lower", 0},
}

// runEnv is one invocation's settings.
type runEnv struct {
	ctx        context.Context
	seed       int64
	window     time.Duration
	trace      bool
	tmp        string // scratch directory for journals
	cpuprofile string
}

// profile starts a CPU profile when --cpuprofile was given and returns the
// function that stops and writes it.
func (env *runEnv) profile() (stop func() error, err error) {
	if env.cpuprofile == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(env.cpuprofile)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// outcome is what one run reports: operations attempted and failed, and the
// metrics by name.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

// fail counts one failed operation and says why on standard error.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	fmt.Fprintf(os.Stderr, "nasaicbench: FAIL: "+format+"\n", args...)
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name       = flag.String("workload", "", "workload to run (see --describe)")
		seed       = flag.Int64("seed", 1, "seed every input of the run is derived from")
		seconds    = flag.Int("seconds", runSeconds, "length of the measured window")
		trace      = flag.Int("trace", 0, "0: end-to-end metrics of untraced runs; 1: per-layer metrics of traced runs")
		tmp        = flag.String("tmpdir", filepath.Join(".bench_build", "tmp"), "scratch directory for journals and the fsync probe")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the workload's untraced run (--trace 0) to this file")
		describe   = flag.Bool("describe", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if *describe {
		return printDescription()
	}
	var wl *benchWorkload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || (*trace != 0 && *trace != 1) || *seconds < 1 || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "nasaicbench: need --workload NAME (see --describe), --trace 0|1 and --seconds >= 1\n")
		return 2
	}
	if err := os.MkdirAll(*tmp, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "nasaicbench: %v\n", err)
		return 1
	}
	h, err := probeHost(*tmp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nasaicbench: host probe: %v\n", err)
		return 1
	}
	hostLine, _ := json.Marshal(h)
	fmt.Printf("host %s\n", hostLine)

	env := &runEnv{
		ctx:        context.Background(),
		seed:       *seed,
		window:     time.Duration(*seconds) * time.Second,
		trace:      *trace == 1,
		tmp:        *tmp,
		cpuprofile: *cpuprofile,
	}
	o, err := wl.run(env)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nasaicbench: %s: %v\n", wl.name, err)
		return 1
	}
	if env.trace {
		o.metrics["host.nproc"] = float64(h.NProc)
		o.metrics["host.gomaxprocs"] = float64(h.GOMAXPROCS)
		o.metrics["host.avx"] = 0
		if h.AVX {
			o.metrics["host.avx"] = 1
		}
		o.metrics["host.tmp_fsync_us"] = h.FsyncUS
	} else {
		o.metrics["ok_pct"] = 100 * float64(o.attempted-o.failed) / float64(o.attempted)
	}
	if err := printResult(o, env.trace); err != nil {
		fmt.Fprintf(os.Stderr, "nasaicbench: %s: %v\n", wl.name, err)
		return 1
	}
	return 0
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult prints a human-readable table and then the result line. An
// end-to-end metric the run did not measure, or a metric name the tables do
// not declare, is an error: either would silently skew a comparison.
func printResult(o *outcome, trace bool) error {
	specs := endToEnd
	if trace {
		specs = perLayer
	}
	declared := map[string]bool{}
	out := map[string]resultMetric{}
	for _, m := range specs {
		declared[m.Name] = true
		v, ok := o.metrics[m.Name]
		if !ok && !trace {
			return fmt.Errorf("end-to-end metric %s not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", m.Name, v)
		}
		out[m.Name] = resultMetric{Value: v, Unit: m.Unit}
		fmt.Printf("%-28s %16.6g %s\n", m.Name, v, m.Unit)
	}
	var undeclared []string
	for name := range o.metrics {
		if !declared[name] {
			undeclared = append(undeclared, name)
		}
	}
	if len(undeclared) > 0 {
		sort.Strings(undeclared)
		return fmt.Errorf("undeclared metrics %v", undeclared)
	}
	line, err := json.Marshal(struct {
		Correct   bool                    `json:"correct"`
		Attempted int                     `json:"attempted"`
		Failed    int                     `json:"failed"`
		Metrics   map[string]resultMetric `json:"metrics"`
	}{o.failed == 0 && o.attempted > 0, o.attempted, o.failed, out})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printDescription prints BENCHMARK.json, generated from the tables above so
// the file and the program cannot drift apart.
func printDescription() int {
	type workloadDoc struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDoc `json:"workloads"`
		EndToEnd   []metric      `json:"end_to_end"`
		PerLayer   []metric      `json:"per_layer"`
	}{
		Command:    []string{"bash", "nasaicbench/run.sh"},
		Paths:      []string{"nasaicbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workloadDoc{w.name, w.why})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "nasaicbench: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

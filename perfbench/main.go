// Command perfbench is the repository benchmark. Each workload launches a
// program built from this checkout (brainy-serve or brainy-train), drives
// it, checks every output against an in-process reference, and prints its
// end-to-end metrics, corrected for the shared host's speed (hostspeed.go).
// With -trace 1 it prints per-layer metrics instead:
// the same end-to-end run supplies the rows read from outside the program
// (process accounting, /metrics deltas, the decision journal), and a
// separate in-process run times calls into each layer's public functions
// under spans. README.md lists the workloads, the metrics and what each
// per-layer metric is expected to move.
//
// Run it through run.sh, which builds everything first:
//
//	bash perfbench/run.sh --workload hot-mixed --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it is the
// workload's full report, with sample counts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// reportEntry is one metric of the full report, with the number of samples
// behind it.
type reportEntry struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// report is a workload's full account of one run: every metric README.md
// names for the workload, the operations it issued and checked, and facts
// (registry fingerprints, GOMAXPROCS, Go version) that make runs
// comparable.
type report struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     bool                   `json:"trace"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Metrics   map[string]reportEntry `json:"metrics"`
	Facts     map[string]any         `json:"facts,omitempty"`
}

func newReport(workload string, seed int64, trace bool) *report {
	return &report{Workload: workload, Seed: seed, Trace: trace,
		Metrics: map[string]reportEntry{}, Facts: map[string]any{}}
}

func (r *report) set(name string, v float64, unit string, samples int) {
	r.Metrics[name] = reportEntry{Value: v, Unit: unit, Samples: samples}
}

// fail counts one failed operation and keeps the first few reasons.
func (r *report) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// env is what every workload needs from the command line.
type env struct {
	bin     string // directory holding brainy-serve and brainy-train
	models  string // the served model registry
	out     string // this run's artifact directory
	seed    int64
	seconds time.Duration
	trace   bool
}

// workloads maps each workload name to its run; BENCHMARK.json and
// README.md say why each exists.
var workloads = map[string]func(e env, rep *report) error{
	"hot-mixed":   runHotMixed,
	"cold-advise": runColdAdvise,
	"train":       runTrain,
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		bin      = flag.String("bin", ".bench_build/bin", "directory holding the brainy-serve and brainy-train binaries")
		models   = flag.String("models", "perfbench/models.json", "model registry served by the serving workloads")
		out      = flag.String("out", ".bench_build/runs", "directory for run artifacts (spans, logs, trained registries)")
		name     = flag.String("workload", "", "workload to run: hot-mixed, cold-advise or train")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
		seconds  = flag.Int("seconds", 30, "length of the timed phase in seconds")
		traceArg = flag.Int("trace", 0, "1 prints per-layer metrics from a traced run instead of end-to-end metrics")
	)
	flag.Parse()
	runWorkload, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds < 1 || (*traceArg != 0 && *traceArg != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	dir := filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d", *name, *seed, *traceArg))
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	e := env{bin: *bin, models: *models, out: dir, seed: *seed,
		seconds: time.Duration(*seconds) * time.Second, trace: *traceArg == 1}
	rep := newReport(*name, *seed, e.trace)
	rep.Facts["gomaxprocs"] = runtime.GOMAXPROCS(0)
	rep.Facts["go"] = runtime.Version()
	if err := runWorkload(e, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}

	names := endToEnd
	if e.trace {
		names = perLayer
	}
	res := result{Correct: rep.Failed == 0, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]metric{}}
	for _, m := range names {
		v := rep.Metrics[m.name] // a layer the workload never calls reads 0
		res.Metrics[m.name] = metric{Value: v.Value, Unit: m.unit}
	}
	if res.Attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation was attempted")
		return 1
	}
	if err := writeJSONFile(filepath.Join(dir, "report.json"), rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("report %s\n", line)
	line, err = json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// metricName is one entry of the benchmark's metric lists; BENCHMARK.json
// carries the same names and units.
type metricName struct{ name, unit string }

// endToEnd are printed with -trace 0. Every workload reports all of them,
// each for its own unit of work: an advise request for the serving
// workloads, a brainy-train run for train.
var endToEnd = []metricName{
	{"setup_s", "s"},
	{"ops_s", "1/s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"rss_mb", "MB"},
}

// perLayer are printed with -trace 1. A layer the workload does not reach
// reads 0.
var perLayer = []metricName{
	{"serve.cpu_ms_per_req", "ms"},
	{"loadgen.cpu_ms_per_req", "ms"},
	{"serve.handler_us.advise", "us"},
	{"serve.handler_us.ingest", "us"},
	{"serve.self_us.advise", "us"},
	{"serve.self_us.ingest", "us"},
	{"serve.allocs_per_req", "count"},
	{"serve.alloc_kb_per_req", "KB"},
	{"profile.decode_us", "us"},
	{"profile.decode_windows_us", "us"},
	{"profile.vector_us", "us"},
	{"core.suggest_batch_us", "us"},
	{"ann.pass_us", "us"},
	{"ann.rows_per_pass", "count"},
	{"core.plan_us", "us"},
	{"drift.observe_us", "us"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.inferences_per_req", "count"},
	{"serve.batch_size_mean", "count"},
	{"serve.batch_fill", "ratio"},
	{"serve.batch_wait_us", "us"},
	{"drift.events", "count"},
	{"training.phase1_s", "s"},
	{"appgen.generate_us", "us"},
	{"appgen.run_all_ms", "ms"},
	{"machine.mevents_s", "Mevent/s"},
	{"machine.events", "count"},
	{"training.decisive_ratio", "ratio"},
	{"training.phase2_s", "s"},
	{"training.fit_s", "s"},
	{"ann.epoch_ms", "ms"},
	{"training.validate_s", "s"},
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place. It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(xs)-1)
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

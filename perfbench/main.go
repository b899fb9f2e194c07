// Command perfbench is the repository benchmark: the measurement every
// performance claim about this simulator is made against. See
// README.md in this directory for the workloads, the metrics and how
// the layers map onto the end-to-end numbers.
//
// It is run from the repository root through run.sh, which builds the
// programs first:
//
//	bash perfbench/run.sh --workload fig4 --seed 1 --seconds 40 --trace 0
//
// With --trace 0 it runs the named workload end to end through the
// programs users run (the cosim CLI with default flags, a cosimd
// process) and reports the end-to-end metrics; with --trace 1 it runs
// the layer tracer and a traced server pass and reports the per-layer
// metrics. Either way the last line of stdout is one JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {"wall_s": {"value": 4.1, "unit": "s"}, ...}}
//
// Every output the programs produce is checked against goldens; a
// mismatch, a non-zero exit, a timeout or a refused request counts as
// a failed operation.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"time"
)

// Benchmark-wide constants. The scale is the footprint relative to the
// paper; at 1/256 one fig4 takes about 4 s on 2 hardware threads, and
// a smaller scale hardly shortens it (the workloads have floors).
const (
	scale     = 1.0 / 256
	scaleFlag = "0.00390625"
	// runBudget bounds one invocation, which must end within 180 s.
	runBudget = 165 * time.Second
)

var workloadNames = []string{"fig4", "fig7", "cosimd-mix"}

// unit of every metric the benchmark can emit.
var units = map[string]string{
	"wall_s":          "s",
	"setup_s":         "s",
	"cpu_s":           "s",
	"peak_rss_mb":     "MiB",
	"latency_p50_ms":  "ms",
	"latency_tail_ms": "ms",
	"submit_p50_ms":   "ms",
	"throughput_rps":  "req/s",

	"workloads.build_s":             "s",
	"softsdv.exec_s":                "s",
	"softsdv.minstr_per_s":          "Minstr/s",
	"softsdv.guest_minstr":          "Minstr",
	"softsdv.bus_events":            "count",
	"tracestore.encode_s":           "s",
	"tracestore.bytes_per_ref":      "B/ref",
	"trace.decode_s":                "s",
	"trace.decode_mrefs_per_s":      "Mref/s",
	"fsb.dispatch_s":                "s",
	"fsb.refs":                      "count",
	"fsb.msgs":                      "count",
	"core.plan_s":                   "s",
	"core.plan.analytic_configs":    "count",
	"core.plan.emulated_configs":    "count",
	"core.plan.deduped_configs":     "count",
	"dragonhead.af_s":               "s",
	"dragonhead.af_pass_ratio":      "ratio",
	"dragonhead.collect_s":          "s",
	"cache.access_s":                "s",
	"cache.accesses":                "count",
	"cache.miss_ratio":              "ratio",
	"oracle.record_s":               "s",
	"oracle.collect_s":              "s",
	"server.submit_ms":              "ms",
	"server.queue_wait_ms":          "ms",
	"server.exec_ms":                "ms",
	"server.result_cache_hit_ratio": "ratio",
	"server.retries_429":            "count",
	"tracestore.dedupe_ratio":       "ratio",
	"go.alloc_bytes_per_ref":        "B/ref",
	"go.gc_cpu_s":                   "s",
	"trace.overhead_pct":            "%",
	"trace.unattributed_s":          "s",
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// config is one invocation.
type config struct {
	Workload string
	Seed     int64
	Seconds  int
	Trace    bool
	Bin      string // directory holding cosim, cosimd, perfbench-layers
	Work     string // scratch directory of this invocation
	Goldens  *goldens
}

// tally counts operations: one child process, request or traced pass.
type tally struct{ attempted, failed int }

func (t *tally) record(err error) bool {
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", err)
		return false
	}
	return true
}

// result is the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: fig4, fig7 or cosimd-mix")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 40, "how long the end-to-end run measures")
	traceFlag := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	bin := fs.String("bin", ".bench_build/bin", "directory holding the built cosim, cosimd and perfbench-layers")
	record := fs.Bool("record-goldens", false, "recompute every golden from the programs in -bin and write them")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *record {
		return recordGoldens(*bin, goldenPath)
	}
	if !slices.Contains(workloadNames, *workload) {
		return fmt.Errorf("unknown --workload %q (want one of %v)", *workload, workloadNames)
	}
	if *seconds < 1 || *traceFlag < 0 || *traceFlag > 1 {
		return fmt.Errorf("--seconds must be positive and --trace 0 or 1")
	}
	cfg := config{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *traceFlag == 1, Bin: *bin}
	decl, err := loadDeclared("BENCHMARK.json")
	if err != nil {
		return err
	}
	if cfg.Goldens, err = loadGoldens(goldenPath); err != nil {
		return err
	}
	work, err := filepath.Abs(filepath.Join(".bench_build", "run", fmt.Sprintf("%s-%d-%d", *workload, *seed, os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	cfg.Work = work
	printJSON(map[string]any{"env": envStamp(cfg)})
	out, err := measure(cfg, decl)
	if err != nil {
		return err
	}
	printTable(out.Metrics)
	printJSON(out)
	return nil
}

// measure runs one invocation and builds its result, checking the
// metrics emitted against the ones declared.
func measure(cfg config, decl declared) (result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	var m map[string]float64
	var t tally
	var err error
	switch {
	case cfg.Trace:
		m, err = runTraced(ctx, cfg, &t)
	case cfg.Workload == "cosimd-mix":
		m, err = runMix(ctx, cfg, &t)
	default:
		m, err = runExhibit(ctx, cfg, &t)
	}
	if err != nil {
		return result{}, err
	}
	want := decl.endToEnd
	if cfg.Trace {
		want = decl.perLayer
	}
	out := result{Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	for name, v := range m {
		out.Metrics[name] = metric{Value: v, Unit: units[name]}
	}
	problems := checkDeclared(out.Metrics, want)
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "perfbench:", p)
	}
	out.Correct = t.failed == 0 && t.attempted > 0 && len(problems) == 0
	if out.Attempted == 0 {
		out.Attempted, out.Failed = 1, 1
	}
	return out, nil
}

// declared holds the metric names and units BENCHMARK.json declares.
type declared struct{ endToEnd, perLayer map[string]string }

func loadDeclared(path string) (declared, error) {
	var raw struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return declared{}, fmt.Errorf("read %s (run from the repository root): %w", path, err)
	}
	if err := json.Unmarshal(b, &raw); err != nil {
		return declared{}, fmt.Errorf("%s: %w", path, err)
	}
	d := declared{endToEnd: map[string]string{}, perLayer: map[string]string{}}
	for _, m := range raw.EndToEnd {
		d.endToEnd[m.Name] = m.Unit
	}
	for _, m := range raw.PerLayer {
		d.perLayer[m.Name] = m.Unit
	}
	return d, nil
}

// checkDeclared compares the emitted metrics with the declared ones:
// every declared metric present with its declared unit, nothing else,
// every name well-formed and every value finite.
func checkDeclared(got map[string]metric, want map[string]string) []string {
	var problems []string
	for name, unit := range want {
		m, ok := got[name]
		switch {
		case !ok:
			problems = append(problems, fmt.Sprintf("declared metric %s was not emitted", name))
		case m.Unit != unit:
			problems = append(problems, fmt.Sprintf("metric %s has unit %q, BENCHMARK.json declares %q", name, m.Unit, unit))
		}
	}
	for name, m := range got {
		if _, ok := want[name]; !ok {
			problems = append(problems, fmt.Sprintf("metric %s is not declared in BENCHMARK.json", name))
		}
		if !metricName.MatchString(name) {
			problems = append(problems, fmt.Sprintf("metric name %q is malformed", name))
		}
		if m.Value != m.Value || m.Value > 1e300 || m.Value < -1e300 {
			problems = append(problems, fmt.Sprintf("metric %s is not finite", name))
		}
	}
	sort.Strings(problems)
	return problems
}

func printTable(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("# %-32s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain data structs always marshal
	}
	fmt.Println(string(b))
}

// Command perfbench is the repository benchmark. It runs one workload —
// a nine-engine testing campaign or the plan service under an open-loop
// request ladder — checks every output it measures, and prints its
// metrics by name and unit, with a JSON summary as the last line.
//
// With -trace 1 it instead replays the workload through each module's
// public functions, records a span around every call, and reports
// per-layer metrics: call latencies, self-time shares and counters.
//
//	go build -o perfbench . && ./perfbench -workload campaign -seed 1 -seconds 20 -trace 0
//
// See README.md for the workloads, metrics and layers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// A run builds its set-up at least minSetups and at most maxSetups
// times, stopping after minSetups once they have taken setupBudget, so a
// long set-up is not built five times. setup_s is their median.
const (
	minSetups   = 3
	maxSetups   = 5
	setupBudget = 10 * time.Second
)

func moreSetups(times []float64) bool {
	total := 0.0
	for _, t := range times {
		total += t
	}
	return len(times) < minSetups || (len(times) < maxSetups && total < setupBudget.Seconds())
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run reports, on every workload.
// What an operation is depends on the workload; see README.md.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"cpu_us_per_op", "us"},
	{"peak_rss_mb", "MB"},
}

type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	work     string
}

// result is one run's outcome.
type result struct {
	values    map[string]float64
	attempted int64
	failed    int64
	failures  []string
	notes     []string
}

func newResult() *result { return &result{values: map[string]float64{}} }

func (r *result) set(name string, v float64) { r.values[name] = v }

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records an output-check failure; the run is reported incorrect.
func (r *result) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func fmtList(xs []float64, prec int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', prec, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload: campaign, serve-miss or serve-hot")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "length of the measured section in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced replay and reports per-layer metrics")
	work := flag.String("work", ".bench_build/perfbench", "directory for stores and span files")
	record := flag.Int("record-findings", 0, "print the campaign finding-set digests of seeds 0..N-1 and exit")
	flag.Parse()

	if err := os.MkdirAll(*work, 0o755); err != nil {
		fatal(err)
	}
	if *record > 0 {
		if err := recordFindings(*work, *record); err != nil {
			fatal(err)
		}
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("-seconds must be positive and -trace 0 or 1"))
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, work: *work}
	var r *result
	var err error
	switch cfg.workload {
	case "campaign":
		r, err = runCampaignWorkload(cfg)
	case "serve-miss", "serve-hot":
		r, err = runServeWorkload(cfg)
	default:
		err = fmt.Errorf("unknown workload %q (want campaign, serve-miss or serve-hot)", cfg.workload)
	}
	if err != nil {
		fatal(err)
	}
	report(cfg, r)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// report prints the human-readable lines and, last, the JSON summary.
func report(cfg runConfig, r *result) {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		fillBypassed(cfg.workload, r)
	}
	fmt.Printf("== perfbench %s seed %d, %s, trace %v ==\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	for _, n := range r.notes {
		fmt.Println(n)
	}
	out := summary{Correct: len(r.failures) == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]jsonMetric{}}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			out.Correct = false
			r.failures = append(r.failures, "metric "+d.name+" was not measured")
		}
		out.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
		fmt.Printf("%-34s %14.4f %s\n", d.name, v, d.unit)
	}
	extra := make([]string, 0)
	for name := range r.values {
		if _, ok := out.Metrics[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Printf("%-34s %14.4f (not in this run's summary)\n", name, r.values[name])
	}
	if out.Attempted < 1 {
		out.Attempted = 1
		out.Failed = 1
		r.failures = append(r.failures, "no operation was attempted")
	}
	if len(r.failures) > 0 {
		out.Correct = false
	}
	for _, f := range r.failures {
		fmt.Println("CHECK FAILED:", f)
	}
	fmt.Printf("error_rate %.6f (%d failed of %d attempted)\n",
		float64(out.Failed)/float64(out.Attempted), out.Failed, out.Attempted)
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

package main

import (
	"syscall"
	"time"

	"asmodel/internal/obs"
	"asmodel/internal/stats"
)

// metricDef names one reported metric and its unit. BENCHMARK.json at
// the repository root lists the same names and units (the package test
// checks they agree).
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, printed by every
// untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"build_s", "s"},
	{"valid_ribout_frac", "ratio"},
	{"predict_p50_ms", "ms"},
	{"predict_p99_ms", "ms"},
	{"predict_ok_frac", "ratio"},
	{"fresh_p50_ms", "ms"},
	{"fresh_p99_ms", "ms"},
	{"fresh_missed_frac", "ratio"},
}

// perLayer are the single-layer metrics, printed by every traced run.
var perLayer = []metricDef{
	{"gen.run_all_s", "s"},
	{"gen.routersim_runs", "count"},
	{"mrt.ingest_s", "s"},
	{"mrt.records", "count"},
	{"model.init_s", "s"},
	{"model.refine_s", "s"},
	{"model.refine_iterations", "count"},
	{"model.speculations", "count"},
	{"model.conflict_rate", "ratio"},
	{"model.refine_busy_frac", "ratio"},
	{"model.evaluate_s", "s"},
	{"model.evaluate_busy_frac", "ratio"},
	{"model.checkpoint_write_s", "s"},
	{"model.checkpoint_load_s", "s"},
	{"model.checkpoint_bytes", "bytes"},
	{"sim.runs", "count"},
	{"sim.messages", "count"},
	{"sim.routes_installed", "count"},
	{"sim.allocs_per_message", "allocs/msg"},
	{"sim.ns_per_message", "ns"},
	{"runtime.gc_cycles", "count"},
	{"runtime.alloc_mb", "MB"},
	{"serve.ready_s", "s"},
	{"serve.swap_p50_ms", "ms"},
	{"serve.swap_max_ms", "ms"},
	{"serve.hit_frac", "ratio"},
	{"serve.hit_p50_ms", "ms"},
	{"serve.miss_p50_ms", "ms"},
	{"serve.miss_p99_ms", "ms"},
	{"serve.propagations", "count"},
	{"serve.shed", "count"},
	{"serve.timeouts", "count"},
	{"stream.batches", "count"},
	{"stream.changed_prefixes", "count"},
	{"stream.refined_prefixes", "count"},
	{"stream.iterations", "count"},
	{"stream.commit_lag_p50_ms", "ms"},
	{"stream.commit_lag_p90_ms", "ms"},
	{"stream.backlog_records_max", "count"},
	{"stream.swap_lag_p50_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the benchmark's last line of standard output.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result is one run's outcome: every metric (both tables), the
// operation counts and the output checks.
type result struct {
	values    map[string]float64
	attempted int
	failed    int
	failures  []string
	// determ holds the outputs that must repeat exactly for a seed
	// (digests and work counts); the package test compares them.
	determ map[string]string
}

func newResult() *result {
	return &result{values: make(map[string]float64), determ: make(map[string]string)}
}

func (r *result) set(name string, v float64) { r.values[name] = v }

// op counts n attempted operations of which failed failed.
func (r *result) op(n, failed int) {
	r.attempted += n
	r.failed += failed
}

// check records one output check as an operation; a false check is a
// failed operation with its reason kept for the report.
func (r *result) check(ok bool, what string) {
	r.attempted++
	if !ok {
		r.failed++
		r.failures = append(r.failures, what)
	}
}

func (r *result) output(traced bool) output {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := output{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		out.Metrics[d.name] = metricValue{Value: r.values[d.name], Unit: d.unit}
	}
	return out
}

// durations collects timings for quantiles; stats.Quantile (nearest
// rank) computes them over nanosecond counts.
type durations []int

func (d *durations) add(x time.Duration) { *d = append(*d, int(x)) }

func (d durations) q(q float64) time.Duration { return time.Duration(stats.Quantile(d, q)) }

func (d durations) ms(q float64) float64 { return float64(d.q(q)) / 1e6 }

func (d durations) secs(q float64) float64 { return d.q(q).Seconds() }

// counter reads one of the program's obs counters from the default
// registry.
func counter(name string) int64 { return obs.GetCounter(name, "").Value() }

// histSum reads the running sum of one of the program's obs histograms.
func histSum(name string) float64 { return obs.GetHistogram(name, "", nil).Sum() }

// peakRSSMB is the process's peak resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

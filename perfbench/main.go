// Command perfbench is asmodel's end-to-end benchmark. It drives the
// system from outside, in one process, through the public functions of
// its layers: gen makes the inputs, mrt ingests them, topology and model
// build, refine and evaluate the quasi-router model, serve answers
// predictions over HTTP, and stream folds an update feed into the served
// model.
//
// Every run executes three phases and reports every end-to-end metric;
// the workload (build or serve) gives its own phase the most time (see
// plans), and every phase runs long enough in both for its metrics to
// be steady:
//
//   - build: the offline path, two or more times (medians reported):
//     MRT RIB dump on disk → mrt.ToDataset → split 0.5 by observation
//     point → topology.FromDataset + model.NewInitial → RefineContext
//     (2 workers) → EvaluateParallel (2 workers) on the validation half →
//     WriteCheckpointFile → serve.New + boot load until the daemon
//     listens. Sim propagation dominates; it is the only phase that runs
//     speculative refinement.
//   - serve: an open-loop stream of (prefix, vantage AS)
//     GET /v1/predict queries at serveRate against the daemon booted from
//     the built checkpoint, in whole reload cycles: POST /-/reload, then
//     every prefix once in a fixed order, every sixth query, between
//     seeded draws of prefixes already asked for. Cache hits skip sim;
//     each swap brings back cold propagations.
//   - fresh: the MRT update stream of the same ground truth is appended
//     to a growing file at freshRate records/s; stream.New in follow mode
//     (workers=1) tails it, a daemon watches the stream's state file, and
//     a light open-loop query load observes when each record's batch is
//     served.
//
// Load comes from this process only: at most two workers and two
// connections per generator (the benchmark host has two CPUs), and every
// latency is timed from when the request was due.
//
// Inputs: the ground truth is gen's default configuration (418 prefixes,
// 33,022 observations) split with a fixed seed, so every run builds the
// same model and times the same work. The --seed draws the query streams
// (except the order of the serve phase's cold queries, which is fixed)
// and the samples the output checks compare. Seeds 1 to 120 were used
// while writing the benchmark; seed 1013 is the holdout seed for checking
// later claims.
//
// Usage, from the root of a checkout (run.sh builds this package and
// runs it with the given flags):
//
//	bash perfbench/run.sh --workload build --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. A traced run also
// records spans from this package's own calls into each layer and writes
// them, with a run report holding both metric tables, under -out-dir.
// Everything else (environment, deterministic outputs, both tables,
// failed checks) goes to standard error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: build or serve")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: draws the query streams and the checked samples")
	seconds := flag.Int("seconds", 30, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run: record spans and print the per-layer metrics")
	limitMS := flag.Float64("latency-limit-ms", 250, "predict latency limit behind predict_ok_frac and the generator-lateness check")
	flag.StringVar(&o.outDir, "out-dir", ".bench_out", "directory for traces, run reports and scratch files")
	flag.Parse()
	o.seconds = float64(*seconds)
	o.trace = *trace == 1
	o.limit = time.Duration(*limitMS * float64(time.Millisecond))
	if _, ok := plans[o.workload]; !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || o.limit <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload build|serve, --seconds >= 1, --trace 0|1 and a positive --latency-limit-ms")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	work, err := os.MkdirTemp(o.outDir, "work-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	o.workDir = work
	res, err := run(ctx, o)
	os.RemoveAll(work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res.output(o.trace))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// options is one invocation's configuration.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	limit    time.Duration
	outDir   string
	workDir  string
}

// tracePath names a traced run's output files.
func (o options) tracePath(suffix string) string {
	return filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d.%s", o.workload, o.seed, suffix))
}

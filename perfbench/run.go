package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"asmodel/internal/model"
	"asmodel/internal/obs"
)

// plan sizes a run's phases at the reference run length (refSeconds);
// a run of --seconds S scales them by S/refSeconds. Every workload runs
// all three phases, so every run reports every end-to-end metric; the
// workload's own phase gets the most time. Each phase is long enough on
// its own for its end-to-end metrics to be steady: the serve phase
// needs two reload cycles for predict_p99_ms.
type plan struct {
	// builds is how many times the build phase runs; build_s and the
	// build's per-layer times are medians over them (nearest rank).
	builds int
	// serveSecs and freshSecs size the serve phase's query stream
	// (rounded to whole reload cycles) and the fresh phase's update feed.
	serveSecs, freshSecs float64
}

const refSeconds = 30

var plans = map[string]plan{
	// build: sim propagation under refine/evaluate dominates, and it is
	// the only phase that runs speculative refinement.
	"build": {builds: 5, serveSecs: 20, freshSecs: 8},
	// serve: reads dominate; cache hits skip sim, while each swap brings
	// back cold propagations, so serving-path changes show here and sim
	// only in the tail.
	"serve": {builds: 4, serveSecs: 30, freshSecs: 8},
}

// scaled converts reference seconds into this run's duration.
func (o options) scaled(secs float64) time.Duration {
	return time.Duration(secs * o.seconds / refSeconds * float64(time.Second))
}

// run executes one workload run: setup, then the build, serve and fresh
// phases, then the output checks.
func run(ctx context.Context, o options) (*result, error) {
	p := plans[o.workload]
	env := obs.NewRunReport("perfbench", os.Args[1:])
	env.Seed = o.seed
	var rec *obs.SpanRecorder
	var sink *obs.TraceSink
	if o.trace {
		f, err := os.Create(o.tracePath("trace.jsonl"))
		if err != nil {
			return nil, err
		}
		sink = obs.NewTraceSink(f) // Close closes f
		rec = obs.NewSpanRecorder(sink, "perfbench", obs.SpanOptions{},
			obs.A("workload", o.workload), obs.A("seed", o.seed), obs.A("seconds", o.seconds))
	}
	var root *obs.Span
	if rec != nil {
		root = rec.Root()
	}
	wsp := root.StartChild("workload." + o.workload)

	r := newResult()
	in, err := generate(ctx, wsp, o, r)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d: %d prefixes, %d observations, %d update records; setup %.2fs\n",
		o.workload, o.seed, in.prefixes, in.observations, in.records(), r.values["setup_s"])

	measured := time.Now()
	bsp := wsp.StartChild("phase.build")
	builds, err := runBuilds(ctx, bsp, in, o, p, r)
	bsp.End()
	if err != nil {
		return nil, err
	}
	last := builds[len(builds)-1]
	defer func() {
		if last.d != nil {
			last.d.stop()
		}
	}()

	// The oracle for the serve checks is the checkpoint loaded on its
	// own, independently of the daemon.
	lsp := wsp.StartChild("model.checkpoint_load")
	t := time.Now()
	cp, err := model.LoadCheckpointFile(last.ckptPath)
	r.set("model.checkpoint_load_s", time.Since(t).Seconds())
	lsp.End()
	if err != nil {
		return nil, fmt.Errorf("loading the checkpoint: %w", err)
	}

	// Each phase starts from a collected heap with the freed memory
	// handed back, so peak_rss_mb is the peak of the heaviest phase
	// rather than of whatever the scavenger had not yet returned.
	debug.FreeOSMemory()
	ssp := wsp.StartChild("phase.serve")
	runServe(ctx, ssp, last.d, cp.Model, o, o.scaled(p.serveSecs), r)
	ssp.End()
	if err := last.d.stop(); err != nil {
		return nil, fmt.Errorf("stopping the daemon: %w", err)
	}
	last.d = nil // its snapshot and prediction cache are not the fresh phase's

	debug.FreeOSMemory()
	fsp := wsp.StartChild("phase.fresh")
	err = runFresh(ctx, fsp, in, last.ds, o, freshRecords(in, o.scaled(p.freshSecs)), r)
	fsp.End()
	if err != nil {
		return nil, err
	}
	wsp.Set(obs.A("measured_s", time.Since(measured).Seconds()))
	wsp.End()
	r.set("peak_rss_mb", peakRSSMB())

	report(env, o, r, builds)
	if o.trace {
		if err := rec.Finish(); err != nil {
			return nil, err
		}
		if err := sink.Close(); err != nil {
			return nil, err
		}
		env.AddSection("end_to_end", r.output(false).Metrics)
		env.AddSection("per_layer", r.output(true).Metrics)
		env.AddSection("deterministic", r.determ)
		env.Finish(rec, nil)
		if err := env.WriteFile(o.tracePath("report.json")); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// runBuilds repeats the build phase per the plan, at least twice. Time
// metrics are the medians over the builds; the counts come from the
// last one and every build must repeat them exactly. The last build's
// daemon stays up.
func runBuilds(ctx context.Context, span *obs.Span, in *inputs, o options, p plan, r *result) ([]*build, error) {
	var builds []*build
	n := max(2, int(math.Round(float64(p.builds)*o.seconds/refSeconds)))
	for len(builds) < n {
		if len(builds) > 0 {
			// Only the last build's model stays live, so every build
			// runs against the same heap.
			prev := builds[len(builds)-1]
			if err := prev.d.stop(); err != nil {
				return nil, fmt.Errorf("stopping the daemon: %w", err)
			}
			prev.d, prev.ds = nil, nil
		}
		runtime.GC() // every build starts from the same heap
		b, err := runBuild(ctx, span, in, o, len(builds))
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: build %d: %.3fs (refine %.3fs, evaluate %.3fs)\n",
			len(builds), b.total.Seconds(), b.refine.Seconds(), b.evaluate.Seconds())
		builds = append(builds, b)
		r.op(1, 0)
		r.check(b.converged, "build: refine converged (training paths reproduced exactly)")
	}
	first, last := builds[0], builds[len(builds)-1]
	for _, b := range builds[1:] {
		r.check(b.counts() == first.counts(), "build: every build of the seed repeats the model digest and work counts")
	}
	var total, ingest, init, refine, evaluate, ckpt, ready durations
	for _, b := range builds {
		total.add(b.total)
		ingest.add(b.ingest)
		init.add(b.init)
		refine.add(b.refine)
		evaluate.add(b.evaluate)
		ckpt.add(b.ckptWrite)
		ready.add(b.ready)
	}
	r.set("build_s", total.secs(0.5))
	r.set("valid_ribout_frac", ratio(float64(last.ribOut), float64(last.paths)))
	r.set("mrt.ingest_s", ingest.secs(0.5))
	r.set("mrt.records", float64(last.mrtRecords))
	r.set("model.init_s", init.secs(0.5))
	r.set("model.refine_s", refine.secs(0.5))
	r.set("model.refine_iterations", float64(last.iterations))
	r.set("model.speculations", float64(last.specs))
	r.set("model.conflict_rate", ratio(float64(last.conflicts), float64(last.specs)))
	r.set("model.refine_busy_frac", ratio(last.refineBusy, last.refine.Seconds()*workers))
	r.set("model.evaluate_s", evaluate.secs(0.5))
	r.set("model.evaluate_busy_frac", ratio(last.evalBusy, last.evaluate.Seconds()*workers))
	r.set("model.checkpoint_write_s", ckpt.secs(0.5))
	r.set("model.checkpoint_bytes", float64(last.ckptBytes))
	r.set("sim.runs", float64(last.simRuns))
	r.set("sim.messages", float64(last.simMsgs))
	r.set("sim.routes_installed", float64(last.simInstalls))
	r.set("sim.allocs_per_message", ratio(float64(last.mallocs), float64(last.simMsgs)))
	r.set("sim.ns_per_message", ratio(float64((last.refine+last.evaluate).Nanoseconds()), float64(last.simMsgs)))
	r.set("runtime.gc_cycles", float64(last.gcCycles))
	r.set("runtime.alloc_mb", float64(last.allocBytes)/(1<<20))
	r.set("serve.ready_s", ready.secs(0.5))
	r.determ["build.counts"] = last.counts()
	return builds, nil
}

// counts renders a build's deterministic outputs: the model digest and
// the work counts that must repeat exactly for a seed.
func (b *build) counts() string {
	return fmt.Sprintf("digest=%s iterations=%d ribout=%d/%d sim_runs=%d sim_messages=%d routes_installed=%d speculations=%d conflicts=%d mrt_records=%d ckpt_bytes=%d",
		b.digest, b.iterations, b.ribOut, b.paths, b.simRuns, b.simMsgs, b.simInstalls, b.specs, b.conflicts, b.mrtRecords, b.ckptBytes)
}

// report prints the environment block, the deterministic outputs, both
// metric tables and any failed check to standard error.
func report(env *obs.RunReport, o options, r *result, builds []*build) {
	e, _ := json.Marshal(map[string]any{
		"go_version": env.GoVersion, "goos": env.GOOS, "goarch": env.GOARCH,
		"num_cpu": env.NumCPU, "gomaxprocs": env.GoMaxProcs, "hostname": env.Hostname,
		"git_describe": env.GitDescribe,
	})
	fmt.Fprintf(os.Stderr, "perfbench: env %s\n", e)
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d builds\n", o.workload, len(builds))
	keys := make([]string, 0, len(r.determ))
	for k := range r.determ {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "perfbench: deterministic %s: %s\n", k, r.determ[k])
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			fmt.Fprintf(os.Stderr, "perfbench: %-28s %14.6g %s\n", d.name, r.values[d.name], d.unit)
		}
	}
	for _, f := range r.failures {
		fmt.Fprintf(os.Stderr, "perfbench: FAILED CHECK: %s\n", f)
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"asmodel/internal/gen"
	"asmodel/internal/mrt"
	"asmodel/internal/obs"
)

// setupReps is how many times a run generates its inputs; setup_s is the
// median.
const setupReps = 5

// workers is the pool size for every parallel layer call and the
// connection count of every load generator: the benchmark host's CPUs.
const workers = 2

// inputs are the generated workload inputs of one seed: the ground truth
// as an MRT RIB dump on disk and as an MRT update stream in memory.
type inputs struct {
	dumpPath string
	// updates is the BGP4MP update stream; bounds[i] is the offset of
	// record i and bounds[len-1] its end, so the fresh phase can append
	// whole records.
	updates []byte
	bounds  []int
	// observations and prefixes size the ground truth.
	observations int
	prefixes     int
}

func (in *inputs) records() int { return len(in.bounds) - 1 }

// generate runs setup setupReps times — ground truth from gen's default
// configuration, RIB dump and update stream — and keeps the last one.
// setup_s and gen.run_all_s are medians; every repetition must produce
// the same bytes.
func generate(ctx context.Context, span *obs.Span, o options, r *result) (*inputs, error) {
	sp := span.StartChild("setup", obs.A("reps", setupReps))
	defer sp.End()
	var total, runAll durations
	var in *inputs
	var dump []byte
	for rep := 0; rep < setupReps; rep++ {
		runtime.GC()
		start := time.Now()
		gsp := sp.StartChild("gen.generate")
		internet, err := gen.Generate(gen.DefaultConfig())
		gsp.End()
		if err != nil {
			return nil, fmt.Errorf("generating the Internet: %w", err)
		}
		runs0 := counter("routersim_runs_total")
		rsp := sp.StartChild("gen.run_all", obs.A("workers", workers))
		t := time.Now()
		ds, err := internet.RunAllParallel(ctx, workers)
		runAll.add(time.Since(t))
		runs := counter("routersim_runs_total") - runs0
		rsp.Set(obs.A("routersim_runs", runs), obs.A("observations", ds.Len()))
		rsp.End()
		if err != nil {
			return nil, fmt.Errorf("running the ground truth: %w", err)
		}
		ds.Normalize()

		msp := sp.StartChild("mrt.write")
		var rib, upd bytes.Buffer
		if err := mrt.FromDataset(&rib, ds, 1000); err != nil {
			return nil, fmt.Errorf("writing the RIB dump: %w", err)
		}
		n, err := mrt.WriteUpdates(&upd, ds, 1000, 1)
		if err != nil {
			return nil, fmt.Errorf("writing the update stream: %w", err)
		}
		msp.Set(obs.A("rib_bytes", rib.Len()), obs.A("update_records", n))
		msp.End()
		path := filepath.Join(o.workDir, "rib.mrt")
		if err := os.WriteFile(path, rib.Bytes(), 0o644); err != nil {
			return nil, err
		}
		bounds, err := recordBounds(upd.Bytes())
		if err != nil {
			return nil, err
		}
		total.add(time.Since(start))

		r.check(dump == nil || bytes.Equal(dump, rib.Bytes()), "setup: every generation of the seed yields the same RIB dump")
		dump = rib.Bytes()
		in = &inputs{
			dumpPath: path, updates: upd.Bytes(), bounds: bounds,
			observations: ds.Len(), prefixes: len(ds.Prefixes()),
		}
		r.determ["gen.routersim_runs"] = fmt.Sprint(runs)
		r.set("gen.routersim_runs", float64(runs))
	}
	r.set("setup_s", total.secs(0.5))
	r.set("gen.run_all_s", runAll.secs(0.5))
	r.determ["gen.observations"] = fmt.Sprint(in.observations)
	sp.Set(obs.A("observations", in.observations), obs.A("prefixes", in.prefixes))
	return in, nil
}

// recordBounds splits an MRT stream at its record boundaries (12-byte
// common header whose last four bytes are the body length).
func recordBounds(b []byte) ([]int, error) {
	bounds := []int{0}
	for off := 0; off < len(b); {
		if len(b)-off < 12 {
			return nil, fmt.Errorf("update stream: torn header at offset %d", off)
		}
		off += 12 + int(binary.BigEndian.Uint32(b[off+8:off+12]))
		if off > len(b) {
			return nil, fmt.Errorf("update stream: torn record ending at %d", off)
		}
		bounds = append(bounds, off)
	}
	return bounds, nil
}

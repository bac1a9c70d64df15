package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"asmodel/internal/dataset"
	"asmodel/internal/model"
	"asmodel/internal/mrt"
	"asmodel/internal/obs"
	"asmodel/internal/serve"
	"asmodel/internal/topology"
)

// splitSeed fixes the train/validation split: like the ground truth it
// does not vary with the workload seed, so every seed builds the same
// model and build_s measures the same work.
const splitSeed = 1

// build is one pass of the offline path and what each layer did in it.
type build struct {
	total, ingest, init, refine, evaluate, ckptWrite, ready time.Duration

	ds         *dataset.Dataset // the ingested dump (CIDR prefix names)
	ckptPath   string
	mrtRecords int
	converged  bool
	iterations int
	ribOut     int
	paths      int
	ckptBytes  int64
	digest     string

	specs, conflicts              int64
	refineBusy, evalBusy          float64
	simRuns, simMsgs, simInstalls int64
	mallocs, allocBytes           uint64
	gcCycles                      uint32

	d *daemon // the daemon serving the checkpoint
}

// runBuild times the offline path from the RIB dump on disk to a ready
// daemon serving the refined checkpoint. The caller owns (and stops)
// the returned daemon.
func runBuild(ctx context.Context, span *obs.Span, in *inputs, o options, n int) (*build, error) {
	b := &build{ckptPath: filepath.Join(o.workDir, fmt.Sprintf("model-%d.ckpt", n))}
	sp := span.StartChild("build", obs.A("n", n))
	defer sp.End()
	start := time.Now()

	lsp := sp.StartChild("mrt.ingest")
	t := time.Now()
	f, err := os.Open(in.dumpPath)
	if err != nil {
		return nil, err
	}
	ds, st, err := mrt.ToDataset(f)
	f.Close()
	b.ingest = time.Since(t)
	if err != nil {
		return nil, fmt.Errorf("ingesting the RIB dump: %w", err)
	}
	b.ds, b.mrtRecords = ds, st.Records
	lsp.Set(obs.A("mrt_records", st.Records), obs.A("observations", ds.Len()))
	lsp.End()

	train, valid := ds.SplitByObsPoint(0.5, splitSeed)
	lsp = sp.StartChild("model.init")
	t = time.Now()
	m, err := model.NewInitial(topology.FromDataset(ds), dataset.NewUniverse(ds))
	b.init = time.Since(t)
	if err != nil {
		return nil, fmt.Errorf("initial model: %w", err)
	}
	lsp.Set(obs.A("quasi_routers", m.NumQuasiRouters()))
	lsp.End()

	// Sim and allocation counters cover refine + evaluate only: the
	// propagation-heavy part of the build.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	simRuns0, simMsgs0, simInst0 := counter("sim_runs_total"), counter("sim_messages_delivered_total"), counter("sim_routes_installed_total")
	specs0, confl0 := counter("refine_speculations_total"), counter("refine_conflicts_total")
	busy0 := histSum("refine_worker_busy_seconds")

	lsp = sp.StartChild("model.refine", obs.A("workers", workers), obs.A("train_observations", train.Len()))
	t = time.Now()
	res, err := m.RefineContext(ctx, train, model.RefineConfig{Workers: workers})
	b.refine = time.Since(t)
	if err != nil {
		return nil, fmt.Errorf("refining: %w", err)
	}
	b.refineBusy = histSum("refine_worker_busy_seconds") - busy0
	b.specs = counter("refine_speculations_total") - specs0
	b.conflicts = counter("refine_conflicts_total") - confl0
	b.converged, b.iterations = res.Converged, res.Iterations
	lsp.Set(obs.A("iterations", res.Iterations), obs.A("converged", res.Converged),
		obs.A("speculations", b.specs), obs.A("conflicts", b.conflicts),
		obs.A("quasi_routers", m.NumQuasiRouters()))
	lsp.End()

	busy0 = histSum("eval_worker_busy_seconds")
	lsp = sp.StartChild("model.evaluate", obs.A("workers", workers), obs.A("valid_observations", valid.Len()))
	t = time.Now()
	ev, err := m.EvaluateParallel(ctx, valid, workers)
	b.evaluate = time.Since(t)
	if err != nil {
		return nil, fmt.Errorf("evaluating: %w", err)
	}
	b.evalBusy = histSum("eval_worker_busy_seconds") - busy0
	b.ribOut, b.paths = ev.Summary.RIBOut, ev.Summary.Total
	lsp.Set(obs.A("rib_out", b.ribOut), obs.A("paths", b.paths))
	lsp.End()

	runtime.ReadMemStats(&ms1)
	b.simRuns = counter("sim_runs_total") - simRuns0
	b.simMsgs = counter("sim_messages_delivered_total") - simMsgs0
	b.simInstalls = counter("sim_routes_installed_total") - simInst0
	b.mallocs = ms1.Mallocs - ms0.Mallocs
	b.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	b.gcCycles = ms1.NumGC - ms0.NumGC
	sp.Set(obs.A("sim_runs", b.simRuns), obs.A("sim_messages", b.simMsgs))

	lsp = sp.StartChild("model.checkpoint_write")
	t = time.Now()
	cp := &model.Checkpoint{Iteration: res.Iterations, Result: *res, Model: m}
	if err := model.WriteCheckpointFile(b.ckptPath, cp); err != nil {
		return nil, fmt.Errorf("writing the checkpoint: %w", err)
	}
	b.ckptWrite = time.Since(t)
	if fi, err := os.Stat(b.ckptPath); err == nil {
		b.ckptBytes = fi.Size()
	}
	lsp.Set(obs.A("bytes", b.ckptBytes))
	lsp.End()

	lsp = sp.StartChild("serve.ready")
	t = time.Now()
	b.d, err = startDaemon(ctx, serve.Config{CheckpointPath: b.ckptPath})
	b.ready = time.Since(t)
	if err != nil {
		return nil, fmt.Errorf("booting the daemon: %w", err)
	}
	lsp.End()
	b.total = time.Since(start)

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		b.d.stop()
		return nil, err
	}
	sum := sha256.Sum256(buf.Bytes())
	b.digest = hex.EncodeToString(sum[:8])
	return b, nil
}

// daemon is a prediction server running on a loopback port.
type daemon struct {
	srv    *serve.Server
	base   string
	cancel context.CancelFunc
	done   chan error

	once    sync.Once
	stopErr error
}

// startDaemon runs serve.Server.Run (boot load, listen, optional watch)
// and returns once the server listens.
func startDaemon(ctx context.Context, cfg serve.Config) (*daemon, error) {
	cfg.Addr = "127.0.0.1:0"
	ready := make(chan string, 1)
	cfg.OnReady = func(addr string) { ready <- addr }
	d := &daemon{srv: serve.New(cfg), done: make(chan error, 1)}
	var dctx context.Context
	dctx, d.cancel = context.WithCancel(ctx)
	go func() { d.done <- d.srv.Run(dctx) }()
	select {
	case addr := <-ready:
		d.base = "http://" + addr
		return d, nil
	case err := <-d.done:
		d.cancel()
		if err == nil {
			err = fmt.Errorf("daemon exited before listening")
		}
		return nil, err
	}
}

// stop drains the daemon and waits for Run to return. Idempotent.
func (d *daemon) stop() error {
	d.once.Do(func() {
		d.cancel()
		d.stopErr = <-d.done
	})
	return d.stopErr
}

// newClient returns an HTTP client holding at most one connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

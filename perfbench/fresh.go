package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"asmodel/internal/dataset"
	"asmodel/internal/model"
	"asmodel/internal/obs"
	"asmodel/internal/serve"
	"asmodel/internal/stream"
	"asmodel/internal/topology"
)

const (
	// freshRate is the fixed rate (records/s) at which the update
	// stream is appended to the followed file.
	freshRate = 1000
	// freshBatch is the stream's batch size (the program default).
	freshBatch = stream.DefaultBatchRecords
	// freshPoll is both the source's follow poll and the daemon's watch
	// interval: well below one batch's processing time, so polling does
	// not hide the program's own latency.
	freshPoll = 5 * time.Millisecond
	// freshQueryRate is the light open-loop query load (queries/s) that
	// observes which snapshot is being served.
	freshQueryRate = 20
	// freshDrain bounds the wait, after the last record is written, for
	// every full batch to be committed and served.
	freshDrain = 30 * time.Second
)

// commitRec is one committed stream batch as the benchmark saw it.
type commitRec struct {
	seq     int64
	records int64 // cursor records after the commit
	at      time.Time
	written int64 // records written to the file by then
	totals  stream.Totals
}

// snapInfo is one served snapshot, from GET /-/snapshot.
type snapInfo struct {
	Seq       int64     `json:"seq"`
	Iteration int       `json:"iteration"`
	LoadedAt  time.Time `json:"loaded_at"`
}

func getSnapshot(c *http.Client, base string) (snapInfo, error) {
	var si snapInfo
	resp, err := c.Get(base + "/-/snapshot")
	if err != nil {
		return si, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return si, fmt.Errorf("/-/snapshot: status %d", resp.StatusCode)
	}
	return si, json.NewDecoder(resp.Body).Decode(&si)
}

// freshRecords is how many update records the fresh phase feeds in dur:
// freshRate × dur, capped by the stream, and never a whole number of
// batches, so the final partial batch (which the stream holds until it
// fills) always shows in fresh_missed_frac.
func freshRecords(in *inputs, dur time.Duration) int {
	n := int(dur.Seconds() * freshRate)
	if n > in.records() {
		n = in.records()
	}
	if n%freshBatch == 0 {
		n--
	}
	return n
}

// runFresh is the fresh phase: append n update records to a followed
// file at freshRate, let stream fold them into its state file, and time
// each record from its write to the first 200 answer from a snapshot
// that contains its batch.
func runFresh(ctx context.Context, span *obs.Span, in *inputs, boot *dataset.Dataset, o options, n int, r *result) error {
	sp := span.StartChild("fresh", obs.A("records", n), obs.A("rate", freshRate), obs.A("batch", freshBatch))
	defer sp.End()
	updPath := filepath.Join(o.workDir, "updates.mrt")
	statePath := filepath.Join(o.workDir, "stream.state")
	f, err := os.OpenFile(updPath, os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()

	// The streamer: batch 0 (the bootstrap model) is committed before
	// any record is read; every later commit is logged with its time.
	var mu sync.Mutex
	var commits []commitRec
	quarantined := make(map[int64]bool)
	var written atomic.Int64
	src := stream.NewFileSource(updPath, true, freshPoll)
	defer src.Close()
	cfg := stream.Config{
		Source:       src,
		StatePath:    statePath,
		BatchRecords: freshBatch,
		Workers:      1,
		Bootstrap:    boot,
		Observer: func(ev stream.Event) {
			if ev.Type == "batch" && ev.Quarantined {
				mu.Lock()
				quarantined[ev.Seq] = true
				mu.Unlock()
			}
		},
		OnCommit: func(st *stream.State) {
			c := commitRec{seq: st.Cursor.Batches, records: st.Cursor.Records, at: time.Now(),
				written: written.Load(), totals: st.Cursor.Totals}
			mu.Lock()
			commits = append(commits, c)
			mu.Unlock()
		},
	}
	bsp := sp.StartChild("stream.bootstrap")
	sctx, scancel := context.WithCancel(ctx)
	sdone := make(chan error, 1)
	go func() {
		_, err := stream.New(cfg).Run(sctx)
		sdone <- err
	}()
	stopStream := sync.OnceValue(func() error {
		scancel()
		err := <-sdone
		var ie *model.InterruptedError
		if err == nil || errors.As(err, &ie) { // canceled between batches, as intended
			return nil
		}
		return fmt.Errorf("stream: %w", err)
	})
	defer stopStream()
	for {
		if _, err := os.Stat(statePath); err == nil {
			break
		}
		select {
		case err := <-sdone:
			sdone <- err // for stopStream
			return fmt.Errorf("stream ended during bootstrap: %v", err)
		case <-time.After(freshPoll):
		}
	}
	bsp.End()

	dsp := sp.StartChild("serve.ready")
	d, err := startDaemon(ctx, serve.Config{CheckpointPath: statePath, WatchInterval: freshPoll})
	if err != nil {
		return fmt.Errorf("booting the fresh daemon: %w", err)
	}
	defer d.stop()
	dsp.End()

	// The light query load runs until the drain ends; every new
	// snapshot seq it sees is resolved to its batch via /-/snapshot.
	prefixes := boot.Prefixes()
	vantages := topology.FromDataset(boot).Nodes()
	maxQueries := int((time.Duration(n)*time.Second/freshRate + freshDrain).Seconds() * freshQueryRate)
	targets := makeTargets(rand.New(rand.NewSource(o.seed+2)), prefixes, vantages, maxQueries)
	var snapMu sync.Mutex
	snaps := make(map[int64]snapInfo)
	resolve := func(_ int, rp *reply, c *http.Client) {
		snapMu.Lock()
		_, known := snaps[rp.pred.SnapshotSeq]
		snapMu.Unlock()
		if rp.status != http.StatusOK || known {
			return
		}
		if si, err := getSnapshot(c, d.base); err == nil {
			snapMu.Lock()
			snaps[si.Seq] = si
			snapMu.Unlock()
		}
	}
	stopQueries := make(chan struct{})
	qdone := make(chan []reply, 1)
	go func() { qdone <- openLoop(ctx, d.base, targets, freshQueryRate, workers, stopQueries, resolve) }()
	stopLoad := sync.OnceValue(func() []reply {
		close(stopQueries)
		return <-qdone
	})
	defer stopLoad()

	// Writer: append whole records on schedule, stamping each with the
	// time its bytes were in the file.
	wsp := sp.StartChild("fresh.feed")
	writeAt := make([]time.Time, n)
	start := time.Now()
	for w := 0; w < n; time.Sleep(time.Millisecond) {
		if err := ctx.Err(); err != nil {
			return err
		}
		due := min(int(time.Since(start).Seconds()*freshRate)+1, n)
		if due <= w {
			continue
		}
		if _, err := f.Write(in.updates[in.bounds[w]:in.bounds[due]]); err != nil {
			return fmt.Errorf("appending updates: %w", err)
		}
		now := time.Now()
		for i := w; i < due; i++ {
			writeAt[i] = now
		}
		w = due
		written.Store(int64(w))
	}
	wsp.End()

	// Drain: wait until every full batch is committed and served.
	drainSp := sp.StartChild("fresh.drain")
	full := int64(n / freshBatch)
	drained := false
	c := newClient()
	defer c.CloseIdleConnections()
	for deadline := time.Now().Add(freshDrain); !drained && ctx.Err() == nil && time.Now().Before(deadline); time.Sleep(freshPoll) {
		si, err := getSnapshot(c, d.base)
		drained = err == nil && int64(si.Iteration) >= full
	}
	time.Sleep(50 * time.Millisecond) // let the query load see the last swap
	replies := stopLoad()
	drainSp.End()
	if err := stopStream(); err != nil {
		return err
	}
	r.check(drained, fmt.Sprintf("fresh: all %d full batches committed and served within %v", full, freshDrain))

	mu.Lock()
	defer mu.Unlock()
	sort.Slice(commits, func(i, j int) bool { return commits[i].seq < commits[j].seq })
	freshnessMetrics(commits, quarantined, writeAt, replies, snaps, o, r)

	// Final state: the served snapshot is the last committed state, and
	// its answers are model.PredictPaths on that state's model.
	csp := sp.StartChild("fresh.check")
	defer csp.End()
	st, err := stream.LoadStateFile(statePath)
	if err != nil {
		return fmt.Errorf("loading the final stream state: %w", err)
	}
	var want, got bytes.Buffer
	if err := st.Checkpoint.Model.Save(&want); err != nil {
		return err
	}
	snap := d.srv.Snapshot()
	if err := snap.Model().Save(&got); err != nil {
		return err
	}
	last := int64(0)
	if len(commits) > 0 {
		last = commits[len(commits)-1].seq
	}
	r.check(st.Cursor.Batches == last && int64(snap.Iteration) == last && bytes.Equal(want.Bytes(), got.Bytes()),
		fmt.Sprintf("fresh: final served snapshot (batch %d) is the last committed state (batch %d)", snap.Iteration, last))
	ok, why := checkAnswers(d.base, st.Checkpoint.Model,
		makeTargets(rand.New(rand.NewSource(o.seed+3)), prefixes, vantages, checkSample))
	r.check(ok, "fresh: served answers equal model.PredictPaths: "+why)
	sum := sha256.Sum256(want.Bytes())
	r.determ["stream.state_digest"] = fmt.Sprintf("%x", sum[:8])
	return nil
}

// freshnessMetrics turns the feed, commit and query logs into the
// fresh_* and stream.* metrics.
func freshnessMetrics(commits []commitRec, quarantined map[int64]bool, writeAt []time.Time,
	replies []reply, snaps map[int64]snapInfo, o options, r *result) {
	// served[b] is when the first 200 answer from a snapshot holding
	// batch b (its iteration, the committed batch count, is >= b) came
	// back. Replies are in due order; iterations never go backwards.
	var served []time.Time
	var late durations
	non200 := 0
	for i := range replies {
		rp := &replies[i]
		late.add(rp.late)
		if rp.status != http.StatusOK {
			non200++
			continue
		}
		si, ok := snaps[rp.pred.SnapshotSeq]
		if !ok {
			continue
		}
		for int64(len(served)) < int64(si.Iteration) {
			served = append(served, rp.recv)
		}
	}
	// loadedAt is when the first snapshot holding batch b was built.
	loadedAt := func(b int64) (at time.Time, ok bool) {
		first := int64(-1)
		for seq, si := range snaps {
			if int64(si.Iteration) >= b && (first < 0 || seq < first) {
				first, at, ok = seq, si.LoadedAt, true
			}
		}
		return at, ok
	}

	var fresh, commitLag, swapLag durations
	missed := 0
	backlog := int64(0)
	prev := int64(0)
	var totals stream.Totals
	for _, c := range commits {
		lo, hi := prev, c.records
		prev = c.records
		totals = c.totals
		if b := c.written - c.records; b > backlog {
			backlog = b
		}
		if hi > lo && hi <= int64(len(writeAt)) {
			commitLag.add(c.at.Sub(writeAt[hi-1]))
		}
		if at, ok := loadedAt(c.seq); ok {
			swapLag.add(at.Sub(c.at))
		}
		if quarantined[c.seq] || c.seq > int64(len(served)) {
			missed += int(hi - lo)
			continue
		}
		for i := lo; i < hi && i < int64(len(writeAt)); i++ {
			fresh.add(served[c.seq-1].Sub(writeAt[i]))
		}
	}
	missed += len(writeAt) - int(prev) // never committed
	r.op(len(writeAt), 0)
	r.op(len(replies), non200)
	r.set("fresh_p50_ms", fresh.ms(0.5))
	r.set("fresh_p99_ms", fresh.ms(0.99))
	r.set("fresh_missed_frac", ratio(float64(missed), float64(len(writeAt))))
	last := int64(0)
	if len(commits) > 0 {
		last = commits[len(commits)-1].seq
	}
	r.set("stream.batches", float64(last))
	r.set("stream.changed_prefixes", float64(totals.ChangedPrefixes))
	r.set("stream.refined_prefixes", float64(totals.RefinedPrefixes))
	r.set("stream.iterations", float64(totals.Iterations))
	r.set("stream.commit_lag_p50_ms", commitLag.ms(0.5))
	r.set("stream.commit_lag_p90_ms", commitLag.ms(0.9))
	r.set("stream.backlog_records_max", float64(backlog))
	r.set("stream.swap_lag_p50_ms", swapLag.ms(0.5))
	r.determ["stream.counts"] = fmt.Sprintf("batches=%d changed=%d refined=%d iterations=%d",
		last, totals.ChangedPrefixes, totals.RefinedPrefixes, totals.Iterations)
	r.check(late.q(0.99) <= o.limit,
		fmt.Sprintf("fresh: query generator overloaded (late p99 %v > limit %v)", late.q(0.99), o.limit))
}

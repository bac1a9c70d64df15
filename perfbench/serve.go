package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"asmodel/internal/bgp"
	"asmodel/internal/model"
	"asmodel/internal/obs"
)

const (
	// serveRate is the serve phase's fixed query rate (queries/s).
	serveRate = 240
	// coldEvery spaces a cycle's cold queries: every coldEvery-th query
	// of a cycle asks for a prefix not yet propagated in it, so a cycle
	// is coldEvery × (number of prefixes) queries, five in six of them
	// cache hits: predict_p50_ms is a hit and predict_p99_ms a cold
	// propagation. At serveRate a cold query is due every 25 ms, longer
	// than most propagations (~9 ms median), so cold queries seldom
	// queue behind each other and the tail measures propagation rather
	// than coincidences of the schedule.
	coldEvery = 6
	// coldOrderSeed fixes the order in which a cycle's cold queries ask
	// for the prefixes. The order decides which propagations overlap,
	// so it is the same in every run; the seed draws the vantages and
	// the hit queries.
	coldOrderSeed = 7
	// checkSample is how many seeded queries each output check compares
	// against model.PredictPaths.
	checkSample = 48
)

// target is one prediction query.
type target struct {
	prefix  string
	vantage bgp.ASN
}

// makeTargets draws n uniform (prefix, vantage AS) queries from rng.
func makeTargets(rng *rand.Rand, prefixes []string, vantages []bgp.ASN, n int) []target {
	ts := make([]target, n)
	for i := range ts {
		ts[i] = target{prefixes[rng.Intn(len(prefixes))], vantages[rng.Intn(len(vantages))]}
	}
	return ts
}

// cycleTargets draws one reload cycle's queries. Every coldEvery-th
// query asks for the next prefix in the fixed cold order (a cold
// propagation after the reload); the others ask for a prefix whose cold
// query was sent in an earlier gap (a cache hit, not a wait on a
// running propagation), except in the cycle's first gap, which asks for
// the first cold prefix. Vantages are uniform draws from rng.
func cycleTargets(rng *rand.Rand, prefixes []string, vantages []bgp.ASN) []target {
	order := rand.New(rand.NewSource(coldOrderSeed)).Perm(len(prefixes))
	ts := make([]target, coldEvery*len(prefixes))
	for i := range ts {
		k := i / coldEvery // cold queries sent before this one
		p := order[k]
		if i%coldEvery != 0 {
			p = order[rng.Intn(max(k, 1))]
		}
		ts[i] = target{prefixes[p], vantages[rng.Intn(len(vantages))]}
	}
	return ts
}

// vantagesOf lists the ASes that hold quasi-routers, sorted.
func vantagesOf(m *model.Model) []bgp.ASN {
	var vs []bgp.ASN
	for asn := range m.QuasiRouterHistogram() {
		vs = append(vs, asn)
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	return vs
}

// prediction is the part of a /v1/predict answer the benchmark reads.
type prediction struct {
	Paths       []string `json:"paths"`
	SnapshotSeq int64    `json:"snapshot_seq"`
	Cached      bool     `json:"cached"`
}

// reply is one query's outcome, timed from when it was due.
type reply struct {
	status    int
	late, lat time.Duration // send - due, answer - due
	recv      time.Time
	pred      prediction
}

// predict sends one query and decodes a 200 answer.
func predict(c *http.Client, base string, t target) (int, prediction, error) {
	var p prediction
	q := url.Values{"prefix": {t.prefix}, "vantage": {fmt.Sprint(t.vantage)}, "k": {"2"}}
	resp, err := c.Get(base + "/v1/predict?" + q.Encode())
	if err != nil {
		return 0, p, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		err = json.NewDecoder(resp.Body).Decode(&p)
	}
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, p, err
}

// openLoop sends targets[i] at start + i/rate from conns workers, each
// with its own single-connection client, until every target is sent or
// stop is closed. after runs on the worker's goroutine once a reply is
// in. It returns the replies of the targets it sent, in due order.
func openLoop(ctx context.Context, base string, targets []target, rate float64, conns int,
	stop <-chan struct{}, after func(i int, r *reply, c *http.Client)) []reply {
	replies := make([]reply, len(targets))
	var next atomic.Int64
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(targets) {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if wait := time.Until(due); wait > 0 {
					select {
					case <-time.After(wait):
					case <-stop:
						return
					case <-ctx.Done():
						return
					}
				}
				select {
				case <-stop:
					return
				default:
				}
				r := &replies[i]
				r.late = time.Since(due)
				status, p, err := predict(c, base, targets[i])
				r.recv = time.Now()
				r.lat = r.recv.Sub(due)
				if err == nil {
					r.status, r.pred = status, p
				}
				if after != nil {
					after(i, r, c)
				}
			}
		}()
	}
	wg.Wait()
	out := replies[:0]
	for i := range replies {
		if !replies[i].recv.IsZero() { // sent before stop
			out = append(out, replies[i])
		}
	}
	return out
}

// checkAnswers queries a seeded sample and compares every served path
// set with model.PredictPaths on the model the daemon should be serving.
func checkAnswers(base string, m *model.Model, ts []target) (bool, string) {
	c := newClient()
	defer c.CloseIdleConnections()
	for _, t := range ts {
		status, p, err := predict(c, base, t)
		want, werr := m.PredictPaths(t.prefix, t.vantage)
		if werr != nil {
			if status == http.StatusOK {
				return false, fmt.Sprintf("%s@%d: served %v, oracle error %v", t.prefix, t.vantage, p.Paths, werr)
			}
			continue
		}
		if err != nil || status != http.StatusOK {
			return false, fmt.Sprintf("%s@%d: status %d, %v", t.prefix, t.vantage, status, err)
		}
		ws := make([]string, len(want))
		for i, w := range want {
			ws[i] = w.String()
		}
		sort.Strings(ws)
		if strings.Join(ws, "|") != strings.Join(p.Paths, "|") {
			return false, fmt.Sprintf("%s@%d: served %v, model.PredictPaths %v", t.prefix, t.vantage, p.Paths, ws)
		}
	}
	return true, ""
}

// runServe is the serve phase: whole reload cycles of an open-loop
// query stream at serveRate, as many as fit in dur (at least one),
// against the daemon booted from the build's checkpoint. Each cycle
// starts with a POST /-/reload, which empties the prediction cache, and
// its queries start once the swap is done. oracle is the checkpoint's
// model loaded independently of the daemon.
func runServe(ctx context.Context, span *obs.Span, d *daemon, oracle *model.Model, o options, dur time.Duration, r *result) {
	prefixes := make([]string, oracle.Universe.Len())
	for i := range prefixes {
		prefixes[i] = oracle.Universe.Name(bgp.PrefixID(i))
	}
	vantages := vantagesOf(oracle)
	cycleLen := coldEvery * len(prefixes)
	cycles := max(1, int(math.Round(dur.Seconds()*serveRate/float64(cycleLen))))
	n := cycles * cycleLen
	sp := span.StartChild("serve.load", obs.A("rate", serveRate), obs.A("queries", n),
		obs.A("cycles", cycles), obs.A("conns", workers))
	defer sp.End()
	rng := rand.New(rand.NewSource(o.seed))

	var swaps durations
	swapFails := 0
	c := newClient()
	prop0, shed0, to0 := counter("serve_propagations_total"), counter("serve_shed_total"), counter("serve_timeouts_total")
	var replies []reply
	for cycle := 0; cycle < cycles && ctx.Err() == nil; cycle++ {
		targets := cycleTargets(rng, prefixes, vantages)
		t := time.Now()
		resp, err := c.Post(d.base+"/-/reload", "", nil)
		swaps.add(time.Since(t))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		if err != nil || resp.StatusCode != http.StatusOK {
			swapFails++
		}
		// The swap dropped the previous snapshot and its cache; every
		// cycle starts from the same collected heap.
		debug.FreeOSMemory()
		replies = append(replies, openLoop(ctx, d.base, targets, serveRate, workers, nil, nil)...)
	}
	c.CloseIdleConnections()
	props := counter("serve_propagations_total") - prop0

	var lat, hit, miss, late durations
	within := 0
	for i := range replies {
		rp := &replies[i]
		late.add(rp.late)
		if rp.status != http.StatusOK {
			continue
		}
		lat.add(rp.lat)
		if rp.lat <= o.limit {
			within++
		}
		if rp.pred.Cached {
			hit.add(rp.lat)
		} else {
			miss.add(rp.lat)
		}
	}
	r.op(len(replies), len(replies)-len(lat))
	r.op(len(swaps), swapFails)
	r.set("predict_p50_ms", lat.ms(0.5))
	r.set("predict_p99_ms", lat.ms(0.99))
	r.set("predict_ok_frac", ratio(float64(within), float64(n)))
	r.set("serve.hit_frac", ratio(float64(len(hit)), float64(len(lat))))
	r.set("serve.hit_p50_ms", hit.ms(0.5))
	r.set("serve.miss_p50_ms", miss.ms(0.5))
	r.set("serve.miss_p99_ms", miss.ms(0.99))
	r.set("serve.propagations", float64(props))
	r.set("serve.shed", float64(counter("serve_shed_total")-shed0))
	r.set("serve.timeouts", float64(counter("serve_timeouts_total")-to0))
	r.set("serve.swap_p50_ms", swaps.ms(0.5))
	r.set("serve.swap_max_ms", swaps.ms(1))
	r.set("loadgen.late_p99_ms", late.ms(0.99))
	r.check(len(replies) == n, "serve: every scheduled query was sent")
	r.check(late.q(0.99) <= o.limit,
		fmt.Sprintf("serve: load generator overloaded (late p99 %v > limit %v)", late.q(0.99), o.limit))
	sp.Set(obs.A("ok", len(lat)), obs.A("hits", len(hit)), obs.A("misses", len(miss)),
		obs.A("swaps", len(swaps)), obs.A("propagations", props))

	csp := sp.StartChild("serve.check", obs.A("sample", checkSample))
	ok, why := checkAnswers(d.base, oracle, makeTargets(rand.New(rand.NewSource(o.seed+1)), prefixes, vantages, checkSample))
	r.check(ok, "serve: served answers equal model.PredictPaths: "+why)
	csp.End()
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"time"

	"github.com/weakgpu/gpulitmus/internal/axiom"
	"github.com/weakgpu/gpulitmus/internal/campaign"
	"github.com/weakgpu/gpulitmus/internal/chip"
	"github.com/weakgpu/gpulitmus/internal/core"
	"github.com/weakgpu/gpulitmus/internal/harness"
	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/obs"
	"github.com/weakgpu/gpulitmus/internal/service"
	"github.com/weakgpu/gpulitmus/internal/service/store"
	"github.com/weakgpu/gpulitmus/internal/sim"
)

// The traced run. It has two parts.
//
// The request part drives the workload's own judge traffic through the
// loopback server twice, untraced and then with "trace": true, a fixed
// number of requests each. It yields the server's obs phase split, the
// tracing overhead, the /v1/stats counters and the loopback cost of this
// workload. sim-sweep's judge traffic is its own five tests by name (the
// Fig. 3 rows and coRR).
//
// The replay part times calls into each module's public functions from
// outside the module, on the seeded inputs of the workload the layer
// serves: test resolution on the judge-hot cycle, the judge layers and the
// store on judge-cold's stream, the simulator layers on sim-sweep's
// cells. It is the same for every workload, so every traced run prints
// every layer metric.
//
// Sizes are fixed, so the exact counts (allocations, candidates,
// computations) repeat exactly for a seed.
const (
	tracedHot     = 600  // judge-hot requests per request-part half
	tracedCold    = 300  // judge-cold requests per half
	tracedSim     = 300  // sim-sweep judge requests per half
	replayPasses  = 10   // passes over the 24 paper tests for litmus timings
	replaySmall   = 200  // judge-cold small tests replayed into the judge layers
	replayWide    = 6    // judge-cold wide tests replayed into the judge layers
	replayMiss    = 200  // judge-cold requests replayed into the miss handler
	replayIters   = 3000 // sim.Run iterations
	replayCellRun = 2000 // runs per cell of the replayed Fig. 3 campaign
)

// layerMetrics accumulates the per-layer metrics and the report rows of
// the replayed requests.
type layerMetrics struct {
	m    map[string]metric
	rows []string
}

func (lm *layerMetrics) set(name string, v float64, unit string) {
	if lm.m == nil {
		lm.m = make(map[string]metric)
	}
	lm.m[name] = metric{v, unit}
}

// row adds a line to the attribution table.
func (lm *layerMetrics) row(format string, args ...any) {
	lm.rows = append(lm.rows, fmt.Sprintf(format, args...))
}

// timeEach calls fn(k) for k in [0,n) and returns each call's duration.
func timeEach(n int, fn func(k int) error) ([]float64, error) {
	out := make([]float64, n)
	for k := 0; k < n; k++ {
		t0 := time.Now()
		if err := fn(k); err != nil {
			return nil, err
		}
		out[k] = float64(time.Since(t0))
	}
	return out, nil
}

// allocsPer calls fn n times and returns the heap allocations and bytes
// per call, rounded down as testing.AllocsPerRun does. Like
// testing.AllocsPerRun it runs under GOMAXPROCS=1, so runtime background
// work does not show in the count.
func allocsPer(n int, fn func(k int) error) (allocs, bytes float64, err error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 0; k < n; k++ {
		if err := fn(k); err != nil {
			return 0, 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / uint64(n)),
		float64((after.TotalAlloc - before.TotalAlloc) / uint64(n)), nil
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// serve runs one request through the handler with no network.
func serve(h http.Handler, r request) (*httptest.ResponseRecorder, error) {
	req := httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", r.path, rec.Code, rec.Body.String())
	}
	return rec, nil
}

// traced returns r with "trace": true set on its judge request.
func traced(r request) request {
	var jr service.JudgeRequest
	if err := json.Unmarshal(r.body, &jr); err != nil {
		panic(err) // the benchmark built the body
	}
	jr.Trace = true
	return request{r.path, mustJSON(jr)}
}

// judgeTraffic is a workload's judge traffic for the request part, with
// the check of each answer.
type judgeTraffic struct {
	clients, n int
	next       func(i int) request
	check      func(rs []result) *failures
	byNameFrac float64 // share of requests that resolve a test by name
	// warm lists tests the request part first judges once, traced, so
	// the traffic that follows hits the cache.
	warm []*litmus.Test
}

func trafficFor(w workload) (judgeTraffic, error) {
	switch w := w.(type) {
	case *judgeHot:
		return judgeTraffic{clients: w.clients(), n: tracedHot, next: w.next, check: w.check, byNameFrac: hotByName / (hotByName + 1.0)}, nil
	case *judgeCold:
		return judgeTraffic{clients: w.clients(), n: tracedCold, next: w.next, check: w.check}, nil
	case *simSweep:
		tests := append(fig3Tests(), litmus.CoRR())
		want := make([]string, len(tests))
		reqs := make([]request, len(tests))
		for k, t := range tests {
			v, err := core.Judge(core.PTX(), t)
			if err != nil {
				return judgeTraffic{}, err
			}
			want[k] = v.String()
			reqs[k] = request{"/v1/judge", mustJSON(service.JudgeRequest{TestRef: service.TestRef{Test: t.Name}, Model: "ptx"})}
		}
		check := func(rs []result) *failures {
			f := &failures{}
			for _, r := range rs {
				if err := checkJudge(r, want[r.index%len(want)], true); err != nil {
					f.add(r.index, err)
				}
			}
			return f
		}
		next := func(i int) request { return reqs[i%len(reqs)] }
		return judgeTraffic{clients: w.clients(), n: tracedSim, next: next, check: check, byNameFrac: 1, warm: tests}, nil
	}
	return judgeTraffic{}, fmt.Errorf("no judge traffic for %T", w)
}

// runTraced is the traced run of workload w.
func runTraced(name string, w workload, seed int64, workDir string) (*output, error) {
	lm := &layerMetrics{}
	gs := newGoStats()
	var warmTraces []*service.TraceInfo
	if hot, ok := w.(*judgeHot); ok {
		// judge-hot's own computations happen while it warms the cache;
		// they join the obs split so it covers the whole workload.
		hot.warmSink = func(ti *service.TraceInfo) { warmTraces = append(warmTraces, ti) }
	}
	s, _, err := setupMedian(w, seed, workDir)
	if err != nil {
		return nil, err
	}
	if n := len(warmTraces); n > setupReps {
		warmTraces = warmTraces[n-n/setupReps:] // the kept server's warm-up
	}
	rp, err := requestPart(lm, gs, w, s, warmTraces)
	if cerr := s.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if err := replay(lm, seed, workDir); err != nil {
		return nil, err
	}
	lm.set("go.heap_peak_mb", float64(gs.heapPeak)/(1<<20), "MB")

	fmt.Printf("litmus.by_name_us %.1f beside service.judge_hit_handler_us %.1f (by-name hits)\n",
		lm.m["litmus.by_name_us"].Value, lm.m["service.judge_hit_handler_us"].Value)
	fmt.Printf("attribution, %s judge traffic (µs per request, means):\n", name)
	attributed := 0.0
	row := func(label string, us float64) {
		attributed += us
		fmt.Printf("  %-40s %10.1f\n", label, us)
	}
	for q := obs.Phase(0); q < obs.NumPhases; q++ {
		row("obs phase "+q.String(), rp.phases[q])
	}
	row(fmt.Sprintf("litmus.ByName x by-name share %.2f", rp.byNameFrac), lm.m["litmus.by_name_us"].Value*rp.byNameFrac)
	row("litmus.Fingerprint", lm.m["litmus.fingerprint_us"].Value)
	row("encode (json.Marshal)", rp.encode)
	row("loopback HTTP (client - handler)", rp.wall-rp.handler)
	fmt.Printf("  %-40s %10.1f\n", "unattributed", rp.wall-attributed)
	fmt.Printf("  %-40s %10.1f\n", "request wall (client, untraced)", rp.wall)
	for _, r := range lm.rows {
		fmt.Println("  " + r)
	}
	return &output{Correct: rp.failed == 0, Attempted: rp.attempted, Failed: rp.failed, Metrics: lm.m}, nil
}

// isTraced picks the traced requests of the request part: alternate
// blocks of wideEvery, so both halves get the same share of judge-cold's
// wide shapes.
func isTraced(i int) bool { return (i/wideEvery)%2 == 1 }

// requestStats are the request part's means, in µs per request.
type requestStats struct {
	attempted, failed     int
	wall, handler, encode float64
	phases                [obs.NumPhases]float64
	byNameFrac            float64
}

// requestPart drives the workload's judge traffic with half the requests
// traced, then the same traffic through the handler alone.
// warmTraces are traces of requests sent before it that join the obs
// split.
func requestPart(lm *layerMetrics, gs *goStats, w workload, s *server, warmTraces []*service.TraceInfo) (*requestStats, error) {
	tr, err := trafficFor(w)
	if err != nil {
		return nil, err
	}
	traces := append([]*service.TraceInfo(nil), warmTraces...)
	if err := warm(s, tr.warm, func(ti *service.TraceInfo) { traces = append(traces, ti) }); err != nil {
		return nil, err
	}
	before, err := s.stats()
	if err != nil {
		return nil, err
	}
	gs.sample()
	gc0, cpu0 := gs.gc, gs.cpu
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				gs.sample()
			}
		}
	}()
	rs, _, err := drive(s, tr.clients, 0, 2*tr.n, time.Hour, false, func(i int) request {
		if isTraced(i) {
			return traced(tr.next(i))
		}
		return tr.next(i)
	})
	close(stop)
	<-sampled
	if err != nil {
		return nil, err
	}
	gs.sample()
	after, err := s.stats()
	if err != nil {
		return nil, err
	}
	f := tr.check(rs)
	for _, n := range f.notes {
		fmt.Println("failure:", n)
	}
	hits := after.Cache.Hits - before.Cache.Hits
	misses := after.Cache.Misses - before.Cache.Misses
	lm.set("service.cache_hit_frac", float64(hits)/float64(max(hits+misses, 1)), "ratio")
	lm.set("service.computations", float64(after.Computations-before.Computations), "count")
	lm.set("service.rejected", float64(after.Inflight.Rejected-before.Inflight.Rejected), "count")
	gcFrac := 0.0 // the runtime updates its CPU estimates at each GC
	if gs.cpu > cpu0 {
		gcFrac = (gs.gc - gc0) / (gs.cpu - cpu0)
	}
	lm.set("go.gc_cpu_frac", gcFrac, "ratio")

	// Latency with and without tracing; the obs phase split.
	var plainLat, tracedLat, encode []float64
	for _, r := range rs {
		if !isTraced(r.index) {
			plainLat = append(plainLat, float64(r.latency)/1e3)
			continue
		}
		tracedLat = append(tracedLat, float64(r.latency)/1e3)
		var jr service.JudgeResult
		if !r.ok() || json.Unmarshal(r.body, &jr) != nil || jr.Trace == nil {
			continue
		}
		traces = append(traces, jr.Trace)
		jr.Trace = nil
		t0 := time.Now()
		if _, err := json.Marshal(jr); err != nil {
			return nil, err
		}
		encode = append(encode, float64(time.Since(t0))/1e3)
	}
	rp := &requestStats{attempted: len(rs), failed: f.n, byNameFrac: tr.byNameFrac}
	var serverWall, phaseSum float64
	for _, ti := range traces {
		serverWall += float64(ti.WallNanos) / 1e3
		for _, p := range ti.Phases {
			for q := obs.Phase(0); q < obs.NumPhases; q++ {
				if q.String() == p.Phase {
					rp.phases[q] += float64(p.Nanos) / 1e3
					phaseSum += float64(p.Nanos) / 1e3
				}
			}
		}
	}
	for q := obs.Phase(0); q < obs.NumPhases; q++ {
		rp.phases[q] /= float64(max(len(traces), 1))
		lm.set("obs.phase_"+q.String()+"_us", rp.phases[q], "us")
	}
	lm.set("obs.unattributed_frac", 1-phaseSum/serverWall, "ratio")
	lm.set("obs.trace_overhead_frac", median(tracedLat)/median(plainLat)-1, "ratio")
	lm.set("service.encode_us", median(encode), "us")
	rp.encode = mean(encode)

	// The handler alone on the same traffic, for the loopback cost.
	h := s.srv.Handler()
	handler, err := timeEach(tr.n, func(k int) error {
		_, err := serve(h, tr.next(2*tr.n+k))
		return err
	})
	if err != nil {
		return nil, err
	}
	for k := range handler {
		handler[k] /= 1e3
	}
	lm.set("service.loopback_us", median(plainLat)-median(handler), "us")
	rp.wall, rp.handler = mean(plainLat), mean(handler)
	return rp, nil
}

// replay times each layer's public functions on the seeded inputs.
func replay(lm *layerMetrics, seed int64, workDir string) error {
	if err := replayLitmus(lm, seed); err != nil {
		return fmt.Errorf("replay litmus: %w", err)
	}
	cold := newColdInputs(seed)
	if err := replayService(lm, seed, cold, workDir); err != nil {
		return fmt.Errorf("replay service: %w", err)
	}
	if err := replayJudge(lm, cold); err != nil {
		return fmt.Errorf("replay judge: %w", err)
	}
	if err := replaySim(lm, seed); err != nil {
		return fmt.Errorf("replay sim: %w", err)
	}
	return nil
}

// replayLitmus times test resolution on the judge-hot cycle.
func replayLitmus(lm *layerMetrics, seed int64) error {
	hot := newHotInputs(seed)
	n := replayPasses * len(hot.tests)
	byName := func(k int) error {
		_, err := litmus.ByName(hot.tests[k%len(hot.tests)].Name)
		return err
	}
	fp := func(k int) error {
		hot.tests[k%len(hot.tests)].Fingerprint()
		return nil
	}
	for _, l := range []struct {
		name string
		fn   func(int) error
	}{{"litmus.by_name", byName}, {"litmus.fingerprint", fp}} {
		ts, err := timeEach(n, l.fn)
		if err != nil {
			return err
		}
		allocs, _, err := allocsPer(n, l.fn)
		if err != nil {
			return err
		}
		lm.set(l.name+"_us", median(ts)/1e3, "us")
		lm.set(l.name+"_allocs", allocs, "count")
	}
	// Parse: the judge-hot sources and the first judge-cold sources.
	var srcs []string
	for _, ref := range hot.refs {
		if ref.Source != "" {
			srcs = append(srcs, ref.Source)
		}
	}
	cold := newColdInputs(seed)
	for i := 0; i < replaySmall; i++ {
		srcs = append(srcs, cold.source(i))
	}
	ts, err := timeEach(len(srcs), func(k int) error {
		_, err := litmus.Parse(srcs[k])
		return err
	})
	if err != nil {
		return err
	}
	lm.set("litmus.parse_us", median(ts)/1e3, "us")
	return nil
}

// replayService times the judge handler with no network: a cache hit on
// the judge-hot cycle and a computed verdict on judge-cold requests (into
// a store). It then replays the records judge-cold wrote into a fresh
// store.
func replayService(lm *layerMetrics, seed int64, cold *coldInputs, workDir string) error {
	hot := newHotInputs(seed)
	hs, err := startServer("", 1)
	if err != nil {
		return err
	}
	defer hs.close()
	if err := warm(hs, hot.tests, nil); err != nil {
		return err
	}
	// Hits by name and by source are timed apart: the two kinds of
	// request in the cycle resolve the test in different ways.
	var byName, bySource []request
	for k, ref := range hot.refs {
		if ref.Test != "" {
			byName = append(byName, hot.reqs[k])
		} else {
			bySource = append(bySource, hot.reqs[k])
		}
	}
	for _, kind := range []struct {
		metric string
		reqs   []request
	}{{"service.judge_hit_handler_us", byName}, {"service.judge_hit_source_handler_us", bySource}} {
		ts, err := timeEach(replayPasses*len(kind.reqs), func(k int) error {
			_, err := serve(hs.srv.Handler(), kind.reqs[k%len(kind.reqs)])
			return err
		})
		if err != nil {
			return err
		}
		lm.set(kind.metric, median(ts)/1e3, "us")
	}

	// Misses, on judge-cold indices no other part of the run sends.
	storeDir, err := os.MkdirTemp(workDir, "replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(storeDir)
	ms, err := service.New(service.Config{StoreDir: storeDir})
	if err != nil {
		return err
	}
	const base = 1 << 30
	ts, err := timeEach(replayMiss, func(k int) error {
		_, err := serve(ms.Handler(), cold.request(base+k))
		return err
	})
	if cerr := ms.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	lm.set("service.judge_miss_handler_us", median(ts)/1e3, "us")

	// The store: replay the records just written.
	st, err := store.Open(storeDir)
	if err != nil {
		return err
	}
	prefix := "judge|" + core.PTX().Fingerprint() + "|"
	var keys []string
	var vals [][]byte
	for k := 0; k < replayMiss; k++ {
		t, err := litmus.Parse(cold.source(base + k))
		if err != nil {
			st.Close()
			return err
		}
		key := prefix + t.Fingerprint()
		v, ok := st.Get(key)
		if !ok {
			st.Close()
			return fmt.Errorf("store has no record for request %d", base+k)
		}
		keys, vals = append(keys, key), append(vals, v)
	}
	if err := st.Close(); err != nil {
		return err
	}
	dir2, err := os.MkdirTemp(workDir, "replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir2)
	st2, err := store.Open(dir2)
	if err != nil {
		return err
	}
	puts, err := timeEach(len(keys), func(k int) error { return st2.Put(keys[k], vals[k]) })
	if err != nil {
		st2.Close()
		return err
	}
	gets, err := timeEach(len(keys), func(k int) error {
		if _, ok := st2.Get(keys[k]); !ok {
			return fmt.Errorf("replayed record %d missing", k)
		}
		return nil
	})
	if err != nil {
		st2.Close()
		return err
	}
	stats := st2.Stats()
	if err := st2.Close(); err != nil {
		return err
	}
	lm.set("store.put_us", median(puts)/1e3, "us")
	lm.set("store.get_us", median(gets)/1e3, "us")
	lm.set("store.bytes_per_record", float64(stats.Bytes)/float64(max(stats.Entries, 1)), "bytes")

	return nil
}

// replayJudge times prepare, enumerate and the whole serial and automatic
// judge on judge-cold's small and wide tests; eval is the remainder.
func replayJudge(lm *layerMetrics, cold *coldInputs) error {
	var small, wide []*litmus.Test
	for i := 0; len(small) < replaySmall || len(wide) < replayWide; i++ {
		if isWide(i) && len(wide) >= replayWide || !isWide(i) && len(small) >= replaySmall {
			continue
		}
		t, err := litmus.Parse(cold.source(i))
		if err != nil {
			return err
		}
		if isWide(i) {
			wide = append(wide, t)
		} else {
			small = append(small, t)
		}
	}
	ctx := context.Background()
	m := core.PTX()
	var prep, enum, cands, visited, serialAll float64
	var allocs []float64
	for _, group := range []struct {
		name  string
		tests []*litmus.Test
	}{{"small", small}, {"wide", wide}} {
		var serial, auto []float64
		for _, t := range group.tests {
			t0 := time.Now()
			en, err := axiom.PrepareCtx(ctx, t, axiom.DefaultOpts())
			if err != nil {
				return err
			}
			prep += float64(time.Since(t0))
			t0 = time.Now()
			err = en.StreamCtx(ctx, func(x *axiom.Execution) error {
				cands += float64(x.Weight())
				visited++
				return nil
			})
			if err != nil {
				return err
			}
			enum += float64(time.Since(t0))
			var v *core.Verdict
			ts, err := timeEach(1, func(int) error {
				var err error
				v, err = core.JudgeCtx(ctx, m, t, 1)
				return err
			})
			if err != nil {
				return err
			}
			serial = append(serial, ts[0])
			serialAll += ts[0]
			ts, err = timeEach(1, func(int) error {
				v2, err := core.JudgeCtx(ctx, m, t, 0)
				if err == nil && v2.String() != v.String() {
					err = fmt.Errorf("%s: parallel verdict differs from serial", t.Name)
				}
				return err
			})
			if err != nil {
				return err
			}
			auto = append(auto, ts[0])
			// The fewest of three calls: map growth depends on the
			// per-map hash seed, so a call can allocate a few overflow
			// buckets more than another.
			a := math.Inf(1)
			for rep := 0; rep < 3; rep++ {
				n, _, err := allocsPer(1, func(int) error {
					_, err := core.JudgeCtx(ctx, m, t, 1)
					return err
				})
				if err != nil {
					return err
				}
				a = math.Min(a, n)
			}
			allocs = append(allocs, a)
		}
		lm.set("core.judge_serial_"+group.name+"_us", mean(serial)/1e3, "us")
		lm.set("core.judge_auto_"+group.name+"_us", mean(auto)/1e3, "us")
		lm.set("core.parallel_speedup_"+group.name, sum(serial)/sum(auto), "ratio")
	}
	n := float64(len(small) + len(wide))
	lm.set("axiom.prepare_us", prep/n/1e3, "us")
	lm.set("axiom.enumerate_ns_per_cand", enum/cands, "ns")
	lm.set("axiom.candidates", cands, "count")
	lm.set("axiom.visited_frac", visited/cands, "ratio")
	lm.set("cat.eval_ns_per_cand", (serialAll-prep-enum)/cands, "ns")
	lm.set("core.judge_allocs", math.Floor(sum(allocs)/n), "count")
	return nil
}

// replaySim times the simulator, the harness, the campaign and the run
// and sweep handlers on sim-sweep's cells, and compares the service's
// outputs byte for byte with the harness runs of the same cells.
func replaySim(lm *layerMetrics, seed int64) error {
	sims := simInputs{seed: seed}
	t, err := litmus.ByName(runTest)
	if err != nil {
		return err
	}
	p := runChip(0)
	inc := chip.Default()
	base := sims.cellSeed(0)
	states := make([]litmus.State, replayIters)
	ts, err := timeEach(replayIters, func(k int) error {
		res, err := sim.Run(t, p, inc, base+int64(k))
		if err == nil {
			states[k] = res.State
		}
		return err
	})
	if err != nil {
		return err
	}
	iterUS := mean(ts) / 1e3
	lm.set("sim.iter_us", iterUS, "us")
	allocs, bytes, err := allocsPer(replayIters, func(k int) error {
		_, err := sim.Run(t, p, inc, base+int64(k))
		return err
	})
	if err != nil {
		return err
	}
	lm.set("sim.allocs_per_iter", allocs, "count")
	lm.set("sim.bytes_per_iter", bytes, "bytes")
	fps, _ := timeEach(replayIters, func(k int) error {
		harness.Fingerprint(t, states[k])
		return nil
	})
	lm.set("harness.fingerprint_ns", median(fps), "ns")

	// One /v1/run at the paper's 100k iterations through the handler, and
	// the same cell through the harness at 1 worker and at nproc; all
	// three outputs must be byte-identical.
	srv, err := service.New(service.Config{})
	if err != nil {
		return err
	}
	defer srv.Close()
	t0 := time.Now()
	rec, err := serve(srv.Handler(), sims.request(0))
	if err != nil {
		return err
	}
	handlerS := time.Since(t0).Seconds()
	var rr service.RunResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &rr); err != nil {
		return err
	}
	lm.set("service.run_handler_ms", handlerS*1e3, "ms")
	runAt := func(par int) (float64, error) {
		t0 := time.Now()
		out, err := harness.RunCtx(context.Background(), t, harness.Config{
			Chip: p, Incant: inc, Runs: runRuns, Seed: base, Parallelism: par})
		if err == nil && out.String() != rr.Output {
			err = fmt.Errorf("/v1/run output differs from harness.RunCtx at parallelism %d", par)
		}
		return time.Since(t0).Seconds(), err
	}
	one, err := runAt(1)
	if err != nil {
		return err
	}
	all, err := runAt(runtime.NumCPU())
	if err != nil {
		return err
	}
	lm.set("harness.run_s", all, "s")
	lm.set("harness.parallel_speedup", one/all, "ratio")
	lm.set("harness.overhead_frac", one/(float64(runRuns)*iterUS/1e6)-1, "ratio")
	lm.row("%-34s %10.1f", "sim-sweep /v1/run handler (ms)", handlerS*1e3)
	lm.row("%-34s %10.1f", "  harness.RunCtx, same cell (ms)", all*1e3)
	lm.row("%-34s %10.1f", "  unattributed (ms)", (handlerS-all)*1e3)

	// The Fig. 3 campaign at a small per-cell budget, the same cells run
	// one by one through the harness, and the same sweep through the
	// service.
	spec := campaign.Spec{Tests: fig3Tests(), Chips: chip.NvidiaResultChips(), Runs: replayCellRun, Seed: sims.cellSeed(1)}
	t0 = time.Now()
	direct := make(map[fig3Cell]*harness.Outcome)
	var jobs []campaign.Job
	for res := range campaign.StreamCtx(context.Background(), spec) {
		if res.Err != nil {
			return res.Err
		}
		direct[fig3Cell{res.Job.TestIndex, res.Job.ChipIndex}] = res.Outcome
		jobs = append(jobs, res.Job)
	}
	campWall := time.Since(t0).Seconds()
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].Index < jobs[b].Index })
	cellSum := 0.0
	for _, j := range jobs {
		t0 := time.Now()
		out, err := harness.RunCtx(context.Background(), j.Test, harness.Config{
			Chip: j.Chip, Incant: j.Incant, Runs: j.Runs, Seed: j.Seed, Parallelism: 1})
		if err != nil {
			return err
		}
		cellSum += time.Since(t0).Seconds()
		if out.String() != direct[fig3Cell{j.TestIndex, j.ChipIndex}].String() {
			return fmt.Errorf("campaign cell %d differs from harness.RunCtx", j.Index)
		}
	}
	lm.set("campaign.cells_per_s", float64(len(jobs))/campWall, "1/s")
	lm.set("campaign.overhead_frac", campWall*float64(runtime.GOMAXPROCS(0))/cellSum-1, "ratio")

	var req service.SweepRequest
	if err := json.Unmarshal(sims.request(1).body, &req); err != nil {
		return err
	}
	req.Runs = replayCellRun
	t0 = time.Now()
	rec, err = serve(srv.Handler(), request{"/v1/sweep", mustJSON(req)})
	if err != nil {
		return err
	}
	sweepWall := time.Since(t0).Seconds()
	dec := json.NewDecoder(rec.Body)
	cells := 0
	for dec.More() {
		var row service.SweepRow
		if err := dec.Decode(&row); err != nil {
			return err
		}
		if row.Done || row.Event != "" {
			continue
		}
		want := direct[fig3Cell{row.TestIndex, row.ChipIndex}]
		if want == nil || row.Output != want.String() {
			return fmt.Errorf("sweep cell %d output differs from harness.RunCtx", row.Index)
		}
		cells++
	}
	if cells != sweepCells {
		return fmt.Errorf("sweep delivered %d cells, want %d", cells, sweepCells)
	}
	lm.row("%-34s %10.1f", "Fig. 3 sweep handler, 2k/cell (ms)", sweepWall*1e3)
	lm.row("%-34s %10.1f", "  campaign.StreamCtx, same (ms)", campWall*1e3)
	lm.row("%-34s %10.1f", "  unattributed (ms)", (sweepWall-campWall)*1e3)
	return nil
}

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/weakgpu/gpulitmus/internal/chip"
	"github.com/weakgpu/gpulitmus/internal/core"
	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/service"
)

// workload is one traffic mix the benchmark drives through the service.
type workload interface {
	// setup makes the inputs from seed and returns a server ready for the
	// first timed request.
	setup(seed int64, workDir string) (*server, error)
	clients() int
	// pairs reports whether the loop must complete whole request pairs;
	// the latency figures then take one sample per pair.
	pairs() bool
	// slice is the length of the slices of the timed window that the
	// end-to-end figures are medians over; 0 takes the whole window.
	slice() time.Duration
	next(i int) request
	// check verifies every answer; it runs after the timed loop.
	check(rs []result) *failures
	// report prints the workload's own end-to-end figures.
	report(rs []result, wall time.Duration)
}

var workloads = map[string]func() workload{
	"judge-hot":  func() workload { return &judgeHot{} },
	"judge-cold": func() workload { return &judgeCold{} },
	"sim-sweep":  func() workload { return &simSweep{} },
}

// judge-hot: 2 clients cycle POST /v1/judge through the 24 paper tests,
// two requests by name to one by inline source, against a warm cache. Every
// request is a hit, so the request costs test resolution (litmus.ByName
// rebuilds the test table; litmus.Parse parses the source), fingerprint,
// cache lookup, encode and HTTP, and no enumeration. It exists to time
// the cache-hit path of the verdict service and serves the
// litmus.by_name_*, litmus.fingerprint_*, litmus.parse_us,
// service.judge_hit_handler_us, service.loopback_us and service.encode_us
// rows.
type judgeHot struct {
	in       *hotInputs
	warmSink func(*service.TraceInfo) // traced runs: receives warm-up traces
}

func (w *judgeHot) clients() int         { return 2 }
func (w *judgeHot) pairs() bool          { return false }
func (w *judgeHot) slice() time.Duration { return time.Second }

func (w *judgeHot) setup(seed int64, _ string) (*server, error) {
	w.in = newHotInputs(seed)
	s, err := startServer("", w.clients())
	if err != nil {
		return nil, err
	}
	if err := warm(s, w.in.tests, w.warmSink); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// warm judges every test once by name so the cache holds its verdict.
// With a sink the requests ask for the obs breakdown, which is passed to
// sink.
func warm(s *server, tests []*litmus.Test, sink func(*service.TraceInfo)) error {
	for _, t := range tests {
		status, body, err := s.do(request{"/v1/judge", mustJSON(service.JudgeRequest{
			TestRef: service.TestRef{Test: t.Name}, Model: "ptx", Trace: sink != nil})})
		if err != nil || status != 200 {
			return fmt.Errorf("warm-up %s: %v", t.Name, transportErr(result{status: status, body: body, err: err}))
		}
		if sink != nil {
			var jr service.JudgeResult
			if err := json.Unmarshal(body, &jr); err != nil {
				return err
			}
			sink(jr.Trace)
		}
	}
	return nil
}

func (w *judgeHot) next(i int) request { return w.in.reqs[i%len(w.in.reqs)] }

// want returns the reference verdict line for each request of the cycle.
func (w *judgeHot) want() ([]string, error) {
	m := core.PTX()
	out := make([]string, len(w.in.refs))
	for j, ref := range w.in.refs {
		var t *litmus.Test
		var err error
		if ref.Test != "" {
			t, err = litmus.ByName(ref.Test)
		} else {
			t, err = litmus.Parse(ref.Source)
		}
		if err != nil {
			return nil, err
		}
		v, err := core.Judge(m, t)
		if err != nil {
			return nil, err
		}
		out[j] = v.String()
	}
	return out, nil
}

func (w *judgeHot) check(rs []result) *failures {
	f := &failures{}
	want, err := w.want()
	if err != nil {
		f.add(-1, fmt.Errorf("reference verdicts: %w", err))
		return f
	}
	for _, r := range rs {
		if err := checkJudge(r, want[r.index%len(want)], true); err != nil {
			f.add(r.index, err)
		}
	}
	return f
}

func (w *judgeHot) report(rs []result, wall time.Duration) {}

// checkJudge verifies one /v1/judge answer: a 2xx status, the expected
// verdict line, and the expected cache outcome.
func checkJudge(r result, want string, wantCached bool) error {
	if !r.ok() {
		return transportErr(r)
	}
	var jr service.JudgeResult
	if err := json.Unmarshal(r.body, &jr); err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	if jr.Verdict != want {
		return fmt.Errorf("verdict %q, want %q", jr.Verdict, want)
	}
	if jr.Cached != wantCached {
		return fmt.Errorf("cached=%v, want %v", jr.Cached, wantCached)
	}
	return nil
}

// judge-cold: 2 clients send POST /v1/judge by inline source to a fresh
// server with a persistent store. Every request is distinct content, so
// every verdict is computed and appended to the store. Most are small diy
// cycles, where parse and prepare dominate; every 20th is a wide
// non-symmetric mp shape with 36 to 14400 candidates, where enumerate and
// eval dominate under the parallel fan-out. It is the write side of the
// cache and store that judge-hot only reads, and the only workload that
// runs axiom, cat and core: it serves the litmus.parse_us,
// service.judge_miss_handler_us, store.*, axiom.*, cat.* and core.* rows.
type judgeCold struct {
	in *coldInputs
}

func (w *judgeCold) clients() int         { return 2 }
func (w *judgeCold) pairs() bool          { return false }
func (w *judgeCold) slice() time.Duration { return time.Second }

func (w *judgeCold) setup(seed int64, workDir string) (*server, error) {
	w.in = newColdInputs(seed)
	return startServer(workDir, w.clients())
}

func (w *judgeCold) next(i int) request { return w.in.request(i) }

func (w *judgeCold) check(rs []result) *failures {
	f := &failures{}
	errs := make([]error, len(rs))
	forEach(len(rs), func(k int) {
		r := rs[k]
		t, err := litmus.Parse(w.in.source(r.index))
		if err != nil {
			errs[k] = fmt.Errorf("reference parse: %w", err)
			return
		}
		v, err := core.Judge(core.PTX(), t)
		if err != nil {
			errs[k] = fmt.Errorf("reference judge: %w", err)
			return
		}
		errs[k] = checkJudge(r, v.String(), false)
	})
	for k, err := range errs {
		if err != nil {
			f.add(rs[k].index, err)
		}
	}
	return f
}

func (w *judgeCold) report(rs []result, wall time.Duration) {
	cands := 0
	for _, r := range rs {
		var jr service.JudgeResult
		if r.ok() && json.Unmarshal(r.body, &jr) == nil {
			cands += jr.Candidates
		}
	}
	fmt.Printf("candidates_per_s %.1f 1/s (%d candidates)\n", float64(cands)/wall.Seconds(), cands)
}

// forEach calls fn(0..n-1) on GOMAXPROCS goroutines and waits for them.
func forEach(n int, fn func(k int)) {
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < n; k += workers {
				fn(k)
			}
		}(w)
	}
	wg.Wait()
}

// sim-sweep: 1 client alternates POST /v1/run of coRR at the paper's 100k
// iterations, where the parallelism is inside the harness, with the
// Fig. 3 POST /v1/sweep (mp-L1 under 4 fences x the 5 Nvidia chips,
// derived seeds), where the parallelism is across cells in the campaign.
// Every request has fresh seeds, so every cell is simulated; the judge
// layers do no work. It serves the sim.*, harness.*, campaign.* and
// service.run_handler_ms rows. Its latency figures take one sample per
// run and sweep pair, the unit the client repeats: a sweep takes about
// ten times as long as a run, so a percentile over single requests would
// sit on the edge between the two kinds.
type simSweep struct {
	in simInputs
}

func (w *simSweep) clients() int { return 1 }
func (w *simSweep) pairs() bool  { return true }

// slice is the whole window: one sweep takes most of it.
func (w *simSweep) slice() time.Duration { return 0 }

// setup ends with a short /v1/run on a seed no timed request uses, so
// the first timed request does not pay for lazy start-up.
func (w *simSweep) setup(seed int64, _ string) (*server, error) {
	w.in = simInputs{seed: seed}
	s, err := startServer("", w.clients())
	if err != nil {
		return nil, err
	}
	status, body, err := s.do(request{"/v1/run", mustJSON(service.RunRequest{
		TestRef: service.TestRef{Test: runTest}, Chip: runChip(0).ShortName,
		Runs: warmRuns, Seed: -w.in.cellSeed(0) - 1})})
	if err != nil || status != 200 {
		s.close()
		return nil, fmt.Errorf("warm-up run: %v", transportErr(result{status: status, body: body, err: err}))
	}
	return s, nil
}

func (w *simSweep) next(i int) request { return w.in.request(i) }

func (w *simSweep) check(rs []result) *failures {
	f := &failures{}
	for _, r := range rs {
		var err error
		if !r.ok() {
			err = transportErr(r)
		} else if r.index%2 == 0 {
			err = checkRun(r.body, runChip(r.index).ShortName, w.in.cellSeed(r.index))
		} else {
			_, err = checkSweep(r.body)
		}
		if err != nil {
			f.add(r.index, err)
		}
	}
	return f
}

func (w *simSweep) report(rs []result, wall time.Duration) {
	var runs, sweeps []float64
	iters := 0
	for _, r := range rs {
		if !r.ok() {
			continue
		}
		if r.index%2 == 0 {
			runs = append(runs, r.latency.Seconds())
			iters += runRuns
		} else {
			sweeps = append(sweeps, r.latency.Seconds())
			iters += sweepCells * sweepRuns
		}
	}
	fmt.Printf("sim_iters_per_s %.1f 1/s (%d iterations)\n", float64(iters)/wall.Seconds(), iters)
	fmt.Printf("run_100k_s %.4f s (n=%d)\n", median(runs), len(runs))
	fmt.Printf("sweep_s %.4f s (n=%d)\n", median(sweeps), len(sweeps))
}

// sweepCells is the number of cells of the Fig. 3 sweep.
var sweepCells = len(litmus.Fences) * len(chip.NvidiaResultChips())

// checkRun verifies a /v1/run answer: the cell asked for, a histogram
// that sums to the run count both as data and as rendered text.
func checkRun(body []byte, chipName string, seed int64) error {
	var rr service.RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	if rr.Test != runTest || rr.Chip != chipName || rr.Runs != runRuns || rr.Seed != seed {
		return fmt.Errorf("run answered %s/%s runs=%d seed=%d", rr.Test, rr.Chip, rr.Runs, rr.Seed)
	}
	sum := 0
	for _, n := range rr.Histogram {
		sum += n
	}
	if sum != rr.Runs {
		return fmt.Errorf("histogram sums to %d, want %d", sum, rr.Runs)
	}
	if n, err := outputRuns(rr.Output); err != nil || n != rr.Runs {
		return fmt.Errorf("output histogram sums to %d (%v), want %d", n, err, rr.Runs)
	}
	return nil
}

// outputRuns sums the counts of a rendered harness histogram.
func outputRuns(out string) (int, error) {
	sum := 0
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 2 && (f[1] == ":>" || f[1] == "*>") {
			n, err := strconv.Atoi(f[0])
			if err != nil {
				return 0, err
			}
			sum += n
		}
	}
	return sum, nil
}

// fig3Cell addresses one cell of the Fig. 3 matrix.
type fig3Cell struct{ row, chip int }

// checkSweep verifies a Fig. 3 sweep answer: every cell present once,
// each histogram summing to its run count, and the paper's pattern
// (the one TestFig3Shape pins): TesC weak on every fence row, Titan weak
// at membar.cta and clean from membar.gl, GTX5 clean from membar.cta.
// It returns the outcome rows.
func checkSweep(body []byte) (map[fig3Cell]service.SweepRow, error) {
	rows := make(map[fig3Cell]service.SweepRow)
	done := false
	dec := json.NewDecoder(bytes.NewReader(body))
	for dec.More() {
		var row service.SweepRow
		if err := dec.Decode(&row); err != nil {
			return nil, fmt.Errorf("decode row: %w", err)
		}
		switch {
		case row.Done:
			if row.Jobs != sweepCells {
				return nil, fmt.Errorf("done row reports %d jobs, want %d", row.Jobs, sweepCells)
			}
			done = true
			continue
		case row.Event != "":
			continue
		case row.Error != "":
			return nil, fmt.Errorf("cell %d: %s", row.Index, row.Error)
		}
		c := fig3Cell{row.TestIndex, row.ChipIndex}
		if _, dup := rows[c]; dup {
			return nil, fmt.Errorf("cell %v twice", c)
		}
		if n, err := outputRuns(row.Output); err != nil || n != row.Runs || row.Runs == 0 {
			return nil, fmt.Errorf("cell %d histogram sums to %d (%v), want %d", row.Index, n, err, row.Runs)
		}
		rows[c] = row
	}
	if !done || len(rows) != sweepCells {
		return nil, fmt.Errorf("sweep delivered %d cells (done=%v), want %d", len(rows), done, sweepCells)
	}
	col := func(name string) int {
		for i, p := range chip.NvidiaResultChips() {
			if p.ShortName == name {
				return i
			}
		}
		panic("no chip " + name)
	}
	tesc, titan, gtx5 := col("TesC"), col("Titan"), col("GTX5")
	for r := 1; r < len(litmus.Fences); r++ {
		if rows[fig3Cell{r, tesc}].Matches == 0 {
			return nil, fmt.Errorf("Fig. 3 row %d: TesC must stay weak", r)
		}
		if rows[fig3Cell{r, gtx5}].Matches != 0 {
			return nil, fmt.Errorf("Fig. 3 row %d: GTX5 must be clean", r)
		}
		if weak := rows[fig3Cell{r, titan}].Matches > 0; weak != (r == 1) {
			return nil, fmt.Errorf("Fig. 3 row %d: Titan weak=%v, want %v", r, weak, r == 1)
		}
	}
	return rows, nil
}

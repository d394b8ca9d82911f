// Command gpubench is the repository's end-to-end benchmark. It starts an
// in-process gpulitmusd (service.Server) on a loopback port, drives it
// with closed-loop clients under one of three workloads, checks every
// answer, and prints its metrics:
//
//	bash bench/run.sh --workload judge-hot --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it measures the end-to-end metrics for --seconds; with
// --trace 1 it replays the same seeded inputs into each layer's public
// functions and prints the per-layer metrics (see layers.go). The traced
// run has fixed sizes instead of a timed window, so its exact counts
// repeat. Report lines go to
// standard output; the last line is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// setupReps is how many times a run sets the workload up; setup_s is the
// median. The first set-up of a process pays one-off costs (page faults,
// code loading) that the median leaves out.
const setupReps = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	start := time.Now()
	rss := startRSSSampler(10 * time.Millisecond)
	name := flag.String("workload", "", "judge-hot, judge-cold or sim-sweep")
	seed := flag.Int64("seed", 1, "workload seed: it generates every input")
	seconds := flag.Int("seconds", 20, "length of the timed window")
	trace := flag.Int("trace", 0, "1 measures the per-layer metrics instead of the end-to-end ones")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: gpubench --workload judge-hot|judge-cold|sim-sweep --seed N --seconds N --trace 0|1\n")
		os.Exit(2)
	}
	workDir := os.Getenv("GPUBENCH_WORKDIR")
	if workDir == "" {
		workDir = "."
	}
	fmt.Println(host())
	var out *output
	var err error
	if *trace == 1 {
		out, err = runTraced(*name, mk(), *seed, workDir)
		rss.finish()
	} else {
		out, err = runTimed(mk(), *seed, time.Duration(*seconds)*time.Second, workDir, start, rss)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpubench:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(out.Metrics))
	for k := range out.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-36s %14.6g %s\n", k, out.Metrics[k].Value, out.Metrics[k].Unit)
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpubench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// setupMedian sets the workload up setupReps times, keeps the last server
// and returns it with the median set-up time.
func setupMedian(w workload, seed int64, workDir string) (*server, float64, error) {
	var times []float64
	var s *server
	for k := 0; k < setupReps; k++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, 0, err
			}
		}
		t0 := time.Now()
		var err error
		if s, err = w.setup(seed, workDir); err != nil {
			return nil, 0, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return s, median(times), nil
}

// runTimed is the untraced run: set up, drive the closed loop for d,
// then check every answer and compute the end-to-end metrics.
func runTimed(w workload, seed int64, d time.Duration, workDir string, start time.Time, rss *rssSampler) (*output, error) {
	s, setupS, err := setupMedian(w, seed, workDir)
	if err != nil {
		return nil, err
	}
	fmt.Printf("process start to first timed request %.4f s\n", time.Since(start).Seconds())
	rs, wall, derr := drive(s, w.clients(), 0, 0, d, w.pairs(), w.next)
	rssMB := rss.finish()
	if err := s.close(); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	if derr != nil {
		return nil, derr
	}
	f := w.check(rs)
	ok := 0
	for _, r := range rs {
		if r.ok() {
			ok++
		}
	}
	w.report(rs, wall)
	fmt.Printf("resident memory: VmHWM %.1f MB, p99 of %d samples %.1f MB\n",
		peakRSSMB(), len(rssMB), percentile(rssMB, 99))
	fmt.Printf("requests %d, latency samples %d, failed %d, error_rate %.6f\n",
		len(rs), ok, f.n, float64(f.n)/float64(max(len(rs), 1)))
	for _, n := range f.notes {
		fmt.Println("failure:", n)
	}
	if ok == 0 {
		return nil, fmt.Errorf("no request succeeded")
	}
	rate, p50, p90 := windowFigures(rs, d, wall, w.slice())
	if w.pairs() {
		_, p50, p90 = windowFigures(joinPairs(rs), d, wall, w.slice())
	}
	if sl := w.slice(); sl > 0 {
		wr, w50, w90 := windowFigures(rs, d, wall, 0)
		fmt.Printf("medians over %d slices of %v; over the whole run: %.1f req/s, p50 %.4f ms, p90 %.4f ms\n",
			d/sl, sl, wr, w50, w90)
	}
	return &output{
		Correct:   f.n == 0,
		Attempted: len(rs),
		Failed:    f.n,
		Metrics: map[string]metric{
			"setup_s":        {setupS, "s"},
			"req_per_s":      {rate, "1/s"},
			"latency_p50_ms": {p50, "ms"},
			"latency_p90_ms": {p90, "ms"},
			"peak_rss_mb":    {percentile(rssMB, 99), "MB"},
		},
	}, nil
}

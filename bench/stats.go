package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// percentile returns the p-th percentile (0 <= p <= 100) of xs by linear
// interpolation between closest ranks (the definition numpy and
// statistics.quantiles(method="inclusive") use). It returns 0 for no
// samples. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// rssSampler records the process's resident set size every interval
// until stopped.
type rssSampler struct {
	stop, done chan struct{}
	mb         []float64
}

func startRSSSampler(interval time.Duration) *rssSampler {
	r := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	page := float64(os.Getpagesize()) / (1 << 20)
	go func() {
		defer close(r.done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			if b, err := os.ReadFile("/proc/self/statm"); err == nil {
				if f := strings.Fields(string(b)); len(f) > 1 {
					if pages, err := strconv.ParseFloat(f[1], 64); err == nil {
						r.mb = append(r.mb, pages*page)
					}
				}
			}
			select {
			case <-r.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return r
}

// finish stops the sampler and returns its samples in MiB.
func (r *rssSampler) finish() []float64 {
	close(r.stop)
	<-r.done
	return r.mb
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// host names the machine a result came from.
func host() string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return "host nproc=" + strconv.Itoa(runtime.NumCPU()) +
		" gomaxprocs=" + strconv.Itoa(runtime.GOMAXPROCS(0)) +
		" go=" + runtime.Version() + " cpu=" + strconv.Quote(cpu)
}

// goStats samples the Go runtime's cumulative GC and total CPU seconds
// and the peak heap seen by the sampler.
type goStats struct {
	samples  []metrics.Sample
	gc, cpu  float64
	heapPeak uint64
}

func newGoStats() *goStats {
	return &goStats{samples: []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/memory/classes/heap/objects:bytes"},
	}}
}

// sample updates the CPU counters and the heap peak.
func (g *goStats) sample() {
	metrics.Read(g.samples)
	if h := g.samples[2].Value.Uint64(); h > g.heapPeak {
		g.heapPeak = h
	}
	g.gc, g.cpu = g.samples[0].Value.Float64(), g.samples[1].Value.Float64()
}

// windowFigures returns the request rate and the p50 and p90 latency in
// ms of the successful requests of a timed window of length d, which took
// wall from the first send to the last answer. With slice > 0 each figure
// is the median of its values over the whole slices of the window, a
// request counting in the slice its answer came in (answers after the
// window count in none), so load from outside the process that lasts less
// than half the window moves the figures little. With slice 0, or a window
// shorter than a slice, they are taken over the whole run.
func windowFigures(rs []result, d, wall, slice time.Duration) (rate, p50, p90 float64) {
	n := 0
	if slice > 0 {
		n = int(d / slice)
	}
	if n == 0 {
		var lat []float64
		for _, r := range rs {
			if r.ok() {
				lat = append(lat, float64(r.latency)/1e6)
			}
		}
		return float64(len(lat)) / wall.Seconds(), percentile(lat, 50), percentile(lat, 90)
	}
	lat := make([][]float64, n)
	for _, r := range rs {
		if k := int(r.end / slice); r.ok() && k < n {
			lat[k] = append(lat[k], float64(r.latency)/1e6)
		}
	}
	var rates, p50s, p90s []float64
	for _, l := range lat {
		rates = append(rates, float64(len(l))/slice.Seconds())
		if len(l) > 0 {
			p50s = append(p50s, percentile(l, 50))
			p90s = append(p90s, percentile(l, 90))
		}
	}
	return median(rates), median(p50s), median(p90s)
}

// joinPairs returns one result per request pair (indices 2k and 2k+1) of
// a loop that completes whole pairs: its latency is the sum of the two,
// it ends when the second does, and it failed if either did.
func joinPairs(rs []result) []result {
	out := make([]result, 0, len(rs)/2)
	for k := 0; k+1 < len(rs); k += 2 {
		a, b := rs[k], rs[k+1]
		if !a.ok() {
			b = a
		}
		b.index, b.latency = k/2, a.latency+b.latency
		out = append(out, b)
	}
	return out
}

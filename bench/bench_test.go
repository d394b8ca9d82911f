package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"github.com/weakgpu/gpulitmus/internal/core"
	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/service"
)

// The same seed must give byte-identical inputs on every workload.
func TestInputsDeterministic(t *testing.T) {
	a, b := newColdInputs(7), newColdInputs(7)
	for i := 0; i < 200; i++ {
		if !bytes.Equal(a.request(i).body, b.request(i).body) {
			t.Fatalf("judge-cold request %d differs between two generations", i)
		}
	}
	ha, hb := newHotInputs(7), newHotInputs(7)
	for i := range ha.reqs {
		if !bytes.Equal(ha.reqs[i].body, hb.reqs[i].body) {
			t.Fatalf("judge-hot request %d differs between two generations", i)
		}
	}
	for i := 0; i < 10; i++ {
		if !bytes.Equal(simInputs{7}.request(i).body, simInputs{7}.request(i).body) {
			t.Fatalf("sim-sweep request %d differs between two generations", i)
		}
	}
}

// Every judge-cold input parses, is distinct content within a seed, and
// shares no fingerprint with another seed's inputs, so no request can be
// answered from an earlier run's cache.
func TestColdFingerprintsDisjoint(t *testing.T) {
	const n = 400
	fps := func(seed int64) map[string]bool {
		c := newColdInputs(seed)
		out := make(map[string]bool)
		for i := 0; i < n; i++ {
			tt, err := litmus.Parse(c.source(i))
			if err != nil {
				t.Fatalf("seed %d request %d: %v\n%s", seed, i, err, c.source(i))
			}
			out[tt.Fingerprint()] = true
		}
		if len(out) != n {
			t.Fatalf("seed %d: %d distinct fingerprints in %d requests", seed, len(out), n)
		}
		return out
	}
	a, b := fps(1), fps(2)
	for fp := range a {
		if b[fp] {
			t.Fatalf("seeds 1 and 2 share fingerprint %s", fp)
		}
	}
}

// Renaming the locations keeps the test: the renamed copy judges to the
// same verdict counts as the diy original.
func TestColdRenamingPreservesVerdict(t *testing.T) {
	c := newColdInputs(3)
	m := core.PTX()
	for i := 0; i < 40; i++ {
		if isWide(i) {
			continue
		}
		renamed, err := litmus.Parse(c.source(i))
		if err != nil {
			t.Fatal(err)
		}
		orig, err := litmus.Parse(c.small[i%len(c.small)].render(""))
		if err != nil {
			t.Fatal(err)
		}
		v1, err1 := core.Judge(m, renamed)
		v2, err2 := core.Judge(m, orig)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if v1.String() != v2.String() {
			t.Fatalf("request %d: renamed %q, original %q", i, v1, v2)
		}
	}
}

// Wide shapes grow from tens to about 10^4 candidates, are not pruned,
// and stay Forbidden.
func TestWideShapes(t *testing.T) {
	m := core.PTX()
	for extra := 1; extra <= 3; extra++ {
		tt, err := litmus.Parse(wideSource(extra, 42, "_t"))
		if err != nil {
			t.Fatal(err)
		}
		v, err := core.Judge(m, tt)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("extra=%d: %d candidates", extra, v.Candidates)
		if v.Observable || v.Candidates < 30 || v.Candidates > 20000 || v.Pruned() != 0 {
			t.Errorf("extra=%d: %s (pruned %d)", extra, v, v.Pruned())
		}
	}
}

// Two seeds never share a sim-sweep cell seed.
func TestSimSeedsDisjoint(t *testing.T) {
	seen := make(map[int64]int64)
	for _, seed := range []int64{1, 2} {
		for i := 0; i < 1000; i++ {
			cs := simInputs{seed}.cellSeed(i)
			if prev, ok := seen[cs]; ok {
				t.Fatalf("cell seed %d used by seeds %d and %d", cs, prev, seed)
			}
			seen[cs] = seed
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {90, 4.6}, {100, 5}, {25, 2},
	} {
		if got := percentile(xs, c.p); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("percentile reordered its input")
	}
	if got := percentile([]float64{2, 4}, 50); got != 3 {
		t.Errorf("median of 2 and 4 = %v, want 3", got)
	}
}

// A corrupted verdict line is a failed request.
func TestCorruptedVerdictFlagged(t *testing.T) {
	v, err := core.Judge(core.PTX(), litmus.CoRR())
	if err != nil {
		t.Fatal(err)
	}
	good := service.JudgeResult{Test: "coRR", Verdict: v.String(), Cached: true}
	body, _ := json.Marshal(good)
	if err := checkJudge(result{status: 200, body: body}, v.String(), true); err != nil {
		t.Fatalf("correct answer flagged: %v", err)
	}
	bad := good
	bad.Verdict = strings.Replace(v.String(), "Sometimes", "Never", 1)
	body, _ = json.Marshal(bad)
	if checkJudge(result{status: 200, body: body}, v.String(), true) == nil {
		t.Fatal("corrupted verdict line not flagged")
	}
	if checkJudge(result{status: 500, body: []byte(`{"error":"x"}`)}, v.String(), true) == nil {
		t.Fatal("500 answer not flagged")
	}
}

// A sweep answer with a histogram that does not sum to its runs, or that
// breaks the Fig. 3 pattern, is rejected.
func TestCheckSweepFlagsBadRows(t *testing.T) {
	var rows []service.SweepRow
	k := 0
	for r := 0; r < 4; r++ {
		for c, name := range []string{"GTX5", "TesC", "GTX6", "Titan", "GTX7"} {
			matches := 0
			if name == "TesC" || (name == "Titan" && r <= 1) || r == 0 {
				matches = 3
			}
			out := "Histogram (2 states)\n" + itoa(10-matches) + " :> x=0\n" + itoa(matches) + " *> x=1\n"
			rows = append(rows, service.SweepRow{Index: k, TestIndex: r, ChipIndex: c, Runs: 10, Matches: matches, Output: out})
			k++
		}
	}
	encode := func(rows []service.SweepRow) []byte {
		var b bytes.Buffer
		for _, row := range rows {
			line, _ := json.Marshal(row)
			b.Write(line)
			b.WriteByte('\n')
		}
		line, _ := json.Marshal(service.SweepRow{Index: -1, Done: true, Jobs: len(rows)})
		b.Write(line)
		return b.Bytes()
	}
	if _, err := checkSweep(encode(rows)); err != nil {
		t.Fatalf("good sweep flagged: %v", err)
	}
	short := append([]service.SweepRow(nil), rows...)
	short[3].Output = "Histogram (1 states)\n9 :> x=0\n"
	if _, err := checkSweep(encode(short)); err == nil {
		t.Error("histogram not summing to runs not flagged")
	}
	clean := append([]service.SweepRow(nil), rows...)
	clean[2*5+1].Matches = 0 // TesC at membar.gl
	if _, err := checkSweep(encode(clean)); err == nil {
		t.Error("TesC clean under a fence not flagged")
	}
}

func itoa(n int) string {
	b, _ := json.Marshal(n)
	return string(b)
}

// The sliced figures are medians over the whole slices of the window;
// answers after the window and failed requests count in no slice.
func TestWindowFigures(t *testing.T) {
	ms := time.Millisecond
	var rs []result
	add := func(end, lat time.Duration, status int) {
		rs = append(rs, result{index: len(rs), status: status, latency: lat, end: end})
	}
	// Slice 0: 3 answers of 1 ms; slice 1: 1 of 5 ms; slice 2: 2 of 2 ms.
	for _, e := range []time.Duration{100, 200, 300} {
		add(e*ms, ms, 200)
	}
	add(1500*ms, 5*ms, 200)
	add(1600*ms, 9*ms, 500)
	add(2100*ms, 2*ms, 200)
	add(2200*ms, 2*ms, 200)
	add(3100*ms, 50*ms, 200) // after the window
	rate, p50, p90 := windowFigures(rs, 3*time.Second, 3200*ms, time.Second)
	if rate != 2 || p50 != 2 || p90 != 2 {
		t.Errorf("sliced figures %v %v %v, want 2 2 2", rate, p50, p90)
	}
	rate, p50, _ = windowFigures(rs, 3*time.Second, 3500*ms, 0)
	if rate != 2 || p50 != 2 {
		t.Errorf("whole-run figures %v %v, want 2 2", rate, p50)
	}
	pairs := joinPairs(rs[3:8])
	if len(pairs) != 2 || pairs[0].latency != 14*ms || pairs[0].ok() || pairs[1].latency != 4*ms || pairs[1].end != 2200*ms {
		t.Errorf("joined pairs %+v", pairs)
	}
}

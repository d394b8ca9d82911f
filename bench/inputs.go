package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"regexp"
	"strings"

	"github.com/weakgpu/gpulitmus/internal/chip"
	"github.com/weakgpu/gpulitmus/internal/diy"
	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/service"
)

// Input sizes. They are part of the benchmark's definition: changing one
// changes every number the benchmark reports.
const (
	// coldCorpus is how many diy cycles of up to coldMaxEdges edges the
	// judge-cold sample is drawn from (the generator's first cycles in its
	// canonical order; the seed picks the order they are sent in).
	coldCorpus   = 2000
	coldMaxEdges = 6
	// wideEvery makes every wideEvery-th judge-cold request a wide shape.
	wideEvery = 20
	// runRuns is the paper's iteration count for one /v1/run cell.
	runRuns = 100000
	// sweepRuns is the per-cell budget of the Fig. 3 sweep. The weakest
	// cells the pattern check needs (TesC under a fence) show 30-50 weak
	// outcomes per 100k runs on the simulator (measured at 200k runs), so
	// at 40k runs each is expected 12 or more times and a false "clean"
	// reading has a probability of about 5e-6 per sweep.
	sweepRuns = 40000
	// warmRuns is the size of sim-sweep's set-up run.
	warmRuns = 2000
	// hotByName is how many times the judge-hot cycle asks for each paper
	// test by name; it asks once by source. A by-name hit costs several
	// times a by-source hit, so with an even mix the median request would
	// sit on the edge between the two kinds and jump between them from run
	// to run. At 2:1 the median falls inside the by-name kind.
	hotByName = 2
)

// mix64 is the splitmix64 finaliser: a bijective hash used to derive
// per-request values from the workload seed.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// derive returns a value that depends on the seed, a salt naming its
// purpose, and the request index.
func derive(seed int64, salt uint64, i int) uint64 {
	return mix64(mix64(uint64(seed)^salt) + uint64(i))
}

// request is one prepared HTTP request: its path and its JSON body (nil
// for a GET).
type request struct {
	path string
	body []byte
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // request types always marshal
	}
	return b
}

// hotInputs is the judge-hot request cycle: every paper test hotByName
// times by name and once by inline source, in a seeded order.
type hotInputs struct {
	tests []*litmus.Test // PaperTests order
	refs  []service.TestRef
	reqs  []request // aligned with refs
}

func newHotInputs(seed int64) *hotInputs {
	h := &hotInputs{tests: litmus.PaperTests()}
	for _, t := range h.tests {
		for k := 0; k < hotByName; k++ {
			h.refs = append(h.refs, service.TestRef{Test: t.Name})
		}
		h.refs = append(h.refs, service.TestRef{Source: t.String()})
	}
	rng := rand.New(rand.NewSource(int64(derive(seed, 0x686f74, 0))))
	rng.Shuffle(len(h.refs), func(i, j int) { h.refs[i], h.refs[j] = h.refs[j], h.refs[i] })
	for _, ref := range h.refs {
		h.reqs = append(h.reqs, request{"/v1/judge", mustJSON(service.JudgeRequest{TestRef: ref, Model: "ptx"})})
	}
	return h
}

// template is a litmus source split at every occurrence of a memory
// location, so a copy with renamed locations renders by concatenation.
type template struct {
	parts []string // text between location occurrences; len(locs)+1 entries
	locs  []string // location name at each split point
}

func newTemplate(src string, locs []string) template {
	alts := make([]string, len(locs))
	for i, l := range locs {
		alts[i] = regexp.QuoteMeta(l)
	}
	re := regexp.MustCompile(`\b(` + strings.Join(alts, "|") + `)\b`)
	var tp template
	last := 0
	for _, m := range re.FindAllStringIndex(src, -1) {
		tp.parts = append(tp.parts, src[last:m[0]])
		tp.locs = append(tp.locs, src[m[0]:m[1]])
		last = m[1]
	}
	tp.parts = append(tp.parts, src[last:])
	return tp
}

// render returns the source with every location name given suffix.
func (tp template) render(suffix string) string {
	var b strings.Builder
	for i, p := range tp.parts {
		b.WriteString(p)
		if i < len(tp.locs) {
			b.WriteString(tp.locs[i])
			b.WriteString(suffix)
		}
	}
	return b.String()
}

func locNames(t *litmus.Test) []string {
	var out []string
	for _, l := range t.Locations() {
		out = append(out, string(l))
	}
	return out
}

// coldInputs generates the judge-cold request stream. Request i renames
// every location of its base test with a suffix naming the seed and i, so
// every request is distinct content (a distinct Test.Fingerprint) within
// a run and across seeds, and the service must compute every verdict.
type coldInputs struct {
	seed  int64
	small []template // diy cycles, in a seeded order
}

func newColdInputs(seed int64) *coldInputs {
	c := &coldInputs{seed: seed}
	for _, g := range diy.Generate(diy.DefaultPool(), coldMaxEdges, coldCorpus) {
		c.small = append(c.small, newTemplate(g.Test.String(), locNames(g.Test)))
	}
	rng := rand.New(rand.NewSource(int64(derive(seed, 0x636f6c64, 0))))
	rng.Shuffle(len(c.small), func(i, j int) { c.small[i], c.small[j] = c.small[j], c.small[i] })
	return c
}

// isWide reports whether request i is a wide shape.
func isWide(i int) bool { return i%wideEvery == wideEvery-1 }

// source returns the litmus source of request i.
func (c *coldInputs) source(i int) string {
	suffix := fmt.Sprintf("_%x_%d", uint64(c.seed), i)
	if isWide(i) {
		return wideSource(1+(i/wideEvery)%3, derive(c.seed, 0x77696465, i), suffix)
	}
	return c.small[i%len(c.small)].render(suffix)
}

func (c *coldInputs) request(i int) request {
	return request{"/v1/judge", mustJSON(service.JudgeRequest{TestRef: service.TestRef{Source: c.source(i)}, Model: "ptx"})}
}

// wideSource is mp+membar.gls with extra solo writer threads, one to x and
// one to y per extra, each storing a distinct seeded value: the
// fencedStressTest family of the core benchmarks. The writes carry
// different values, so no two are interchangeable and symmetry pruning
// removes nothing; the rf/co choice space grows factorially with extra
// (36 candidates at extra=1, 14400 at extra=3), so enumerate and eval
// dominate the request. The verdict stays Forbidden at every size.
func wideSource(extra int, h uint64, suffix string) string {
	x, y := "x"+suffix, "y"+suffix
	vals := rand.New(rand.NewSource(int64(h))).Perm(900)
	b := litmus.NewTest(fmt.Sprintf("mp-wide%d+membar.gls", extra)).
		Global(x, 0).Global(y, 0).
		Thread(fmt.Sprintf("st.cg [%s],1", x), "membar.gl", fmt.Sprintf("st.cg [%s],1", y)).
		Thread(fmt.Sprintf("ld.cg r1,[%s]", y), "membar.gl", fmt.Sprintf("ld.cg r2,[%s]", x))
	for k := 0; k < extra; k++ {
		b = b.Thread(fmt.Sprintf("st.cg [%s],%d", x, vals[2*k]+2))
		b = b.Thread(fmt.Sprintf("st.cg [%s],%d", y, vals[2*k+1]+2))
	}
	return b.InterCTA().Exists("1:r1=1 /\\ 1:r2=0").MustBuild().String()
}

// fig3Tests are the rows of Fig. 3 (mp-L1 under each fence), by name.
func fig3Tests() []*litmus.Test {
	out := make([]*litmus.Test, len(litmus.Fences))
	for i, f := range litmus.Fences {
		out[i] = litmus.MPL1(f)
	}
	return out
}

// runTest is the paper test every /v1/run request simulates: coRR, the
// test of Fig. 1. runChip cycles the request through the Fig. 3 chips.
const runTest = "coRR"

func runChip(i int) *chip.Profile {
	chips := chip.NvidiaResultChips()
	return chips[(i/2)%len(chips)]
}

// simInputs generates the sim-sweep stream: even requests are a /v1/run
// of coRR at 100k iterations, odd ones the Fig. 3 sweep. Every request
// carries a seed derived from the workload seed and its index, so no cell
// repeats within a run or across seeds.
type simInputs struct{ seed int64 }

// cellSeed is the seed of request i (the /v1/run seed, or the sweep's
// base seed from which the campaign derives each cell's seed).
func (s simInputs) cellSeed(i int) int64 {
	return int64(derive(s.seed, 0x73696d, i) >> 1)
}

func (s simInputs) request(i int) request {
	if i%2 == 0 {
		return request{"/v1/run", mustJSON(service.RunRequest{
			TestRef: service.TestRef{Test: runTest},
			Chip:    runChip(i).ShortName,
			Runs:    runRuns,
			Seed:    s.cellSeed(i),
		})}
	}
	req := service.SweepRequest{Runs: sweepRuns, Seed: s.cellSeed(i)}
	for _, t := range fig3Tests() {
		req.Tests = append(req.Tests, service.TestRef{Test: t.Name})
	}
	for _, p := range chip.NvidiaResultChips() {
		req.Chips = append(req.Chips, p.ShortName)
	}
	return request{"/v1/sweep", mustJSON(req)}
}

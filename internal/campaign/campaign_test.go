package campaign

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/weakgpu/gpulitmus/internal/chip"
	"github.com/weakgpu/gpulitmus/internal/core"
	"github.com/weakgpu/gpulitmus/internal/litmus"
)

// shortSpec is a small tests×chips matrix that exercises every engine path
// (multi-test, multi-chip, weak and strong profiles) quickly enough for
// short/race mode.
func shortSpec(parallelism int) Spec {
	return Spec{
		Tests: []*litmus.Test{
			litmus.MP(litmus.NoFence),
			litmus.SBGlobal(),
			litmus.CoRR(),
		},
		Chips:       []*chip.Profile{chip.GTXTitan, chip.GTX280},
		Runs:        400,
		Seed:        42,
		Parallelism: parallelism,
	}
}

// TestDeterministicAcrossWorkerCount is the engine's core contract: the
// aggregated outcomes of a ≥3-test × 2-chip campaign are byte-identical
// with one worker and with eight.
func TestDeterministicAcrossWorkerCount(t *testing.T) {
	one, err := Run(shortSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	eight, err := Run(shortSpec(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(one.Outcomes) != 6 || len(eight.Outcomes) != len(one.Outcomes) {
		t.Fatalf("want 3×2 = 6 outcomes, got %d and %d", len(one.Outcomes), len(eight.Outcomes))
	}
	for i := range one.Outcomes {
		a, b := one.Outcomes[i], eight.Outcomes[i]
		if a.Matches != b.Matches {
			t.Errorf("job %d: matches %d vs %d across worker counts", i, a.Matches, b.Matches)
		}
		if len(a.Histogram) != len(b.Histogram) {
			t.Errorf("job %d: histogram sizes differ", i)
		}
		for k, v := range a.Histogram {
			if b.Histogram[k] != v {
				t.Errorf("job %d: histogram differs at %q: %d vs %d", i, k, v, b.Histogram[k])
			}
		}
		if a.String() != b.String() {
			t.Errorf("job %d: rendered outcomes differ", i)
		}
	}
}

// TestShortCampaign is the -short/-race smoke: one small campaign through
// the concurrent engine with a progress callback and expanded axes checks.
func TestShortCampaign(t *testing.T) {
	var mu sync.Mutex
	var calls []int
	spec := shortSpec(4)
	spec.Progress = func(done, total int) {
		mu.Lock()
		defer mu.Unlock()
		if total != 6 {
			t.Errorf("progress total = %d", total)
		}
		calls = append(calls, done)
	}
	agg, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 6 {
		t.Errorf("progress called %d times", len(calls))
	}
	if len(agg.Tests) != 3 || len(agg.Chips) != 2 || len(agg.Incants) != 1 {
		t.Errorf("axes %d×%d×%d", len(agg.Tests), len(agg.Chips), len(agg.Incants))
	}
	// mp on Titan under default incantations is observable; anything on the
	// strong GTX 280 is not.
	if !agg.Outcome(0, 0, 0).Observed() {
		t.Error("mp must be observed on Titan")
	}
	for ti := range agg.Tests {
		if agg.Outcome(ti, 1, 0).Observed() {
			t.Errorf("%s observed on GTX 280", agg.Tests[ti].Name)
		}
	}
}

func TestFencedExpansionAndSeedFn(t *testing.T) {
	var seedCalls atomic.Int64
	spec := Spec{
		Fenced: []func(litmus.Fence) *litmus.Test{litmus.MP, litmus.MPL1},
		Fences: litmus.Fences,
		Chips:  []*chip.Profile{chip.GTXTitan},
		Runs:   100,
		SeedFn: func(j Job) int64 {
			seedCalls.Add(1)
			return int64(j.TestIndex*31 + j.ChipIndex)
		},
	}
	agg, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(agg.Tests) != 8 { // 2 makers × 4 fences
		t.Fatalf("expanded tests = %d", len(agg.Tests))
	}
	if agg.Tests[0].Name != litmus.MP(litmus.NoFence).Name {
		t.Errorf("first expanded test = %s", agg.Tests[0].Name)
	}
	if seedCalls.Load() != 8 {
		t.Errorf("SeedFn called %d times", seedCalls.Load())
	}
	for i, j := range agg.Jobs {
		if j.Seed != int64(j.TestIndex*31+j.ChipIndex) {
			t.Errorf("job %d seed = %d", i, j.Seed)
		}
	}
}

func TestIncantFn(t *testing.T) {
	spec := shortSpec(2)
	spec.IncantFn = func(tst *litmus.Test, base chip.Incant) chip.Incant {
		if len(tst.Scope.CTAs) == 1 {
			base.BankConflicts = true
		}
		return base
	}
	agg, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	// coRR (test index 2, so job index 2·2+0 = 4) is intra-CTA: its jobs
	// get bank conflicts; the inter-CTA mp jobs do not.
	if !agg.Jobs[4].Incant.BankConflicts {
		t.Error("intra-CTA job must gain bank conflicts")
	}
	if agg.Jobs[0].Incant.BankConflicts {
		t.Error("inter-CTA job must not gain bank conflicts")
	}
}

func TestSpecErrors(t *testing.T) {
	if _, err := Run(Spec{Tests: []*litmus.Test{litmus.CoRR()}}); err == nil {
		t.Error("no chips must error")
	}
	if _, err := Run(Spec{Chips: []*chip.Profile{chip.GTXTitan}}); err == nil {
		t.Error("no tests must error")
	}
	if _, err := Run(Spec{
		Fenced: []func(litmus.Fence) *litmus.Test{litmus.MP},
		Chips:  []*chip.Profile{chip.GTXTitan},
	}); err == nil {
		t.Error("fenced makers without fences must error")
	}
}

func TestStreamDeliversEveryJob(t *testing.T) {
	seen := make(map[int]bool)
	for r := range Stream(shortSpec(4)) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if seen[r.Job.Index] {
			t.Errorf("job %d delivered twice", r.Job.Index)
		}
		seen[r.Job.Index] = true
		if r.Outcome == nil || r.Outcome.Runs != 400 {
			t.Errorf("job %d outcome malformed", r.Job.Index)
		}
	}
	if len(seen) != 6 {
		t.Errorf("streamed %d results, want 6", len(seen))
	}
}

func TestStreamSpecError(t *testing.T) {
	var got []Result
	for r := range Stream(Spec{}) {
		got = append(got, r)
	}
	if len(got) != 1 || got[0].Err == nil {
		t.Errorf("spec error must stream exactly one failing result, got %v", got)
	}
}

func TestForEachCoversAllIndicesOnce(t *testing.T) {
	const n = 1000
	var counts [n]atomic.Int32
	if err := ForEach(n, 8, func(i int) error {
		counts[i].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Errorf("index %d executed %d times", i, c)
		}
	}
}

func TestForEachPropagatesFirstErrorByIndex(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	err := ForEach(100, 4, func(i int) error {
		switch i {
		case 17:
			return errA
		case 60:
			return errB
		}
		return nil
	})
	if err == nil {
		t.Fatal("error lost")
	}
	// With both failures recorded the lower index wins; with early abort
	// only one may have run, but whichever is returned must be one of them.
	if err != errA && err != errB {
		t.Errorf("unexpected error %v", err)
	}
}

func TestJobSeedDecorrelates(t *testing.T) {
	seen := make(map[int64]bool)
	for i := 0; i < 1000; i++ {
		s := jobSeed(7, i)
		if seen[s] {
			t.Fatalf("seed collision at index %d", i)
		}
		seen[s] = true
	}
	if jobSeed(7, 0) != jobSeed(7, 0) {
		t.Error("jobSeed must be deterministic")
	}
	if jobSeed(7, 0) == jobSeed(8, 0) {
		t.Error("base seed must matter")
	}
}

func TestMemoComputesOncePerTest(t *testing.T) {
	memo := NewMemo()
	m := core.PTX()
	test := litmus.MP(litmus.NoFence)

	// Hammer the memo from the pool: every call must observe the same
	// computed entry (pointer-identical) with no duplicated work visible.
	infos := make([]*ModelInfo, 16)
	if err := ForEach(16, 8, func(i int) error {
		info, err := memo.Analyse(context.Background(), m, test, core.Opts{Parallelism: 1})
		infos[i] = info
		return err
	}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 16; i++ {
		if infos[i] != infos[0] {
			t.Fatal("memo returned distinct entries for one test")
		}
	}
	if !infos[0].WeakAllowed {
		t.Error("mp's weak outcome must be model-allowed")
	}
	if infos[0].Candidates == 0 || len(infos[0].Allowed) == 0 {
		t.Error("analysis must enumerate candidates and allowed states")
	}

	v, err := memo.Verdict(context.Background(), m, test, core.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Observable {
		t.Error("verdict must allow mp")
	}
	v2, _ := memo.Verdict(context.Background(), m, test, core.Opts{})
	if v2 != v {
		t.Error("verdict must be memoized")
	}

	// A different model keys a different entry.
	sc, err := memo.Verdict(context.Background(), core.SC(), test, core.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Observable {
		t.Error("SC must forbid mp")
	}
}

// TestMemoContentAddressed pins the content-addressed keying: separately
// constructed (pointer-distinct) but semantically identical tests and models
// share one memo entry, and a renamed-but-identical test still hits it.
func TestMemoContentAddressed(t *testing.T) {
	memo := NewMemo()

	a, err := memo.Analyse(context.Background(), core.PTX(), litmus.CoRR(), core.Opts{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := memo.Analyse(context.Background(), core.PTX(), litmus.CoRR(), core.Opts{Parallelism: 1}) // fresh *Model, fresh *Test
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("pointer-distinct identical (model, test) pairs must share an entry")
	}

	renamed := litmus.CoRR()
	renamed.Name = "corr-under-an-alias"
	c, err := memo.Analyse(context.Background(), core.PTX(), renamed, core.Opts{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if c != a {
		t.Error("renamed identical test must share the entry (fingerprints ignore names)")
	}

	v1, err := memo.Verdict(context.Background(), core.PTX(), litmus.CoRR(), core.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := memo.Verdict(context.Background(), core.PTX(), litmus.CoRR(), core.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Error("verdicts of identical pairs must be memoized across pointers")
	}
}

// TestStreamCtxCancelTruncates: cancelling the stream's context stops
// delivery promptly and still closes the channel.
func TestStreamCtxCancelTruncates(t *testing.T) {
	spec := shortSpec(1) // serial pool: results arrive one at a time
	spec.Runs = 2000
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch := StreamCtx(ctx, spec)

	got := 0
	for range ch {
		got++
		if got == 1 {
			cancel()
		}
	}
	// One result was read before cancellation; at most the jobs already in
	// flight may have slipped through, never the whole campaign.
	if got >= 6 {
		t.Errorf("read %d of 6 results after cancelling at the first", got)
	}
}

// TestStreamCtxBackgroundMatchesStream: an uncancelled StreamCtx delivers
// every job exactly once, like Stream.
func TestStreamCtxBackgroundMatchesStream(t *testing.T) {
	seen := make(map[int]bool)
	for res := range StreamCtx(context.Background(), shortSpec(4)) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if seen[res.Job.Index] {
			t.Fatalf("job %d delivered twice", res.Job.Index)
		}
		seen[res.Job.Index] = true
	}
	if len(seen) != 6 {
		t.Errorf("delivered %d of 6 jobs", len(seen))
	}
}

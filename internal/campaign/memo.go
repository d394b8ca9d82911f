package campaign

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"github.com/weakgpu/gpulitmus/internal/analysis"
	"github.com/weakgpu/gpulitmus/internal/axiom"
	"github.com/weakgpu/gpulitmus/internal/core"
	"github.com/weakgpu/gpulitmus/internal/harness"
	"github.com/weakgpu/gpulitmus/internal/litmus"
)

// Memo caches the expensive model-side sub-results shared between campaign
// jobs: candidate-execution enumeration and model verdicts per (model,
// test). A sweep of one test over several chips needs the test's allowed
// final states exactly once; without the memo each job recomputes the
// enumeration (validate.go's old inline loop did this per test serially).
// Memo is safe for concurrent use; each entry is computed exactly once even
// under concurrent first requests (duplicate-suppression via per-entry
// sync.Once).
//
// Entries are content-addressed: the key is the model's source fingerprint,
// the test's canonical content fingerprint (litmus.Test.Fingerprint) and
// the enumeration bounds (core.Opts.Enum), not pointer identity.
// Independently constructed but semantically identical tests — litmus.ByName
// builds a fresh *Test per call, and every service request parses its own —
// therefore share one computation.
//
// Every Memo method computes its entry on the first request for it, under
// that request's ctx and o; later requests for the entry — concurrent ones
// included — get the memoized result. Results are identical for every
// o.Parallelism, so only the first requester's is used. Cancellation and
// obs tracing reach the enumeration only through the computing request's
// ctx: a joiner's trace records no pipeline phases. Because entries are
// content-addressed, a memoized Verdict's Test field is the first
// requester's *Test: a content-identical test under another name receives
// the original's verdict object (counts and witness are necessarily
// identical; only the label differs).
type Memo struct {
	mu      sync.Mutex
	entries map[memoKey]*memoEntry
	// staticSkipped counts verdicts the static prefilter decided without
	// enumeration (Verdict with Opts.Static).
	staticSkipped atomic.Int64
}

type memoKey struct {
	model string     // core.Model.Fingerprint()
	test  string     // litmus.Test.Fingerprint()
	enum  axiom.Opts // core.Opts.Enum: other bounds are another entry
}

type memoEntry struct {
	once sync.Once
	info *ModelInfo
	err  error

	vOnce   sync.Once
	verdict *core.Verdict
	vErr    error

	// Static-prefilter verdicts memoize separately from enumerated ones:
	// a static verdict carries no candidate counts, so a caller asking for
	// the full enumeration must not be served a static entry.
	sOnce sync.Once
	sVerd *core.Verdict
	sErr  error

	// Fence-repair syntheses memoize like verdicts: one search per (model,
	// test) content pair however many cells of a campaign share the test.
	rOnce  sync.Once
	repair *analysis.RepairResult
	rErr   error
}

// ModelInfo is the memoized model analysis of one test: which final-state
// fingerprints the model allows, and whether the test's exists-condition is
// among them.
type ModelInfo struct {
	Allowed      map[string]bool // model-allowed final-state fingerprints
	WeakAllowed  bool            // some allowed execution satisfies the condition
	Candidates   int             // enumerated candidate executions
	AllowedCount int             // candidates the model allows
}

// NewMemo returns an empty memo.
func NewMemo() *Memo {
	return &Memo{entries: make(map[memoKey]*memoEntry)}
}

// Analyse returns the memoized model analysis of t under m: enumerate the
// candidate executions, filter through the model, and fingerprint the
// allowed final states with the harness's fingerprint function (so
// histograms compare directly against Allowed). Campaign callers fanning
// out across tests on the pool pass o.Parallelism 1, so that no second
// worker pool nests inside theirs. o.Static is an error: a static decision
// has no executions to analyse.
func (mm *Memo) Analyse(ctx context.Context, m *core.Model, t *litmus.Test, o core.Opts) (*ModelInfo, error) {
	if o.Static {
		return nil, errors.New("campaign: Analyse needs executions; a static decision has none")
	}
	e := mm.entry(m, t, o.Enum)
	e.once.Do(func() { e.info, e.err = analyse(ctx, m, t, o) })
	return e.info, e.err
}

// Verdict returns the memoized herd-style verdict of t under m (exactly
// core.JudgeWith). With o.Static the static prefilter runs first: a
// decided verdict skips enumeration (StaticSkipped set, zero candidate
// counts) and increments the memo's skip counter. Static and enumerated
// verdicts memoize in separate slots, so a later non-static request still
// gets full counts.
func (mm *Memo) Verdict(ctx context.Context, m *core.Model, t *litmus.Test, o core.Opts) (*core.Verdict, error) {
	e := mm.entry(m, t, o.Enum)
	if !o.Static {
		e.vOnce.Do(func() { e.verdict, e.vErr = core.JudgeWith(ctx, m, t, o) })
		return e.verdict, e.vErr
	}
	e.sOnce.Do(func() {
		e.sVerd, e.sErr = core.JudgeWith(ctx, m, t, o)
		if e.sErr == nil && e.sVerd.StaticSkipped {
			mm.staticSkipped.Add(1)
		}
	})
	return e.sVerd, e.sErr
}

// StaticSkipped returns how many verdicts the static prefilter decided
// without enumeration over this memo's lifetime.
func (mm *Memo) StaticSkipped() int64 { return mm.staticSkipped.Load() }

// Repair returns the memoized fence-repair synthesis of t under m (exactly
// core.Repair): the minimal judge-verified set of membar insertions/
// strengthenings making the exists-condition Never. A campaign sweeping
// one broken test over many chips synthesizes its fix exactly once.
func (mm *Memo) Repair(ctx context.Context, m *core.Model, t *litmus.Test, o core.Opts) (*analysis.RepairResult, error) {
	e := mm.entry(m, t, o.Enum)
	e.rOnce.Do(func() { e.repair, e.rErr = core.Repair(ctx, m, t, o) })
	return e.repair, e.rErr
}

func (mm *Memo) entry(m *core.Model, t *litmus.Test, enum axiom.Opts) *memoEntry {
	key := memoKey{model: m.Fingerprint(), test: t.Fingerprint(), enum: enum}
	mm.mu.Lock()
	defer mm.mu.Unlock()
	e, ok := mm.entries[key]
	if !ok {
		e = &memoEntry{}
		mm.entries[key] = e
	}
	return e
}

func analyse(ctx context.Context, m *core.Model, t *litmus.Test, o core.Opts) (*ModelInfo, error) {
	info := &ModelInfo{Allowed: make(map[string]bool)}
	// Candidate executions stream from the enumerator into verdict-only
	// model evaluation (Model.ForEachVerdict), never materialising the
	// candidate set; visit runs serially in enumeration order, so the
	// reductions need no lock and the info is identical for every
	// parallelism.
	n, err := m.ForEachVerdict(ctx, t, o, func(_ int, x *axiom.Execution, allowed bool) error {
		if !allowed {
			return nil
		}
		// Weighted: a symmetry-pruned representative stands for Weight()
		// equivalent executions sharing its final state, so the count — and
		// the fingerprint set, which is orbit-invariant by construction —
		// matches the exhaustive enumeration exactly.
		info.AllowedCount += x.Weight()
		info.Allowed[harness.Fingerprint(t, x.Final)] = true
		if t.Exists.Eval(x.Final) {
			info.WeakAllowed = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	info.Candidates = n
	return info, nil
}

// Package core implements the paper's primary formal contribution (Sec. 5):
// the axiomatic model of Nvidia PTX — SPARC RMO stratified per GPU scope —
// together with a herd-style simulator that decides whether a litmus test's
// final condition is allowed.
//
// The model exists in two independent forms that are cross-checked against
// each other: the .cat sources of Figs. 15 and 16 interpreted by package
// cat, and a native Go implementation (native.go).
package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"github.com/weakgpu/gpulitmus/internal/analysis"
	"github.com/weakgpu/gpulitmus/internal/axiom"
	"github.com/weakgpu/gpulitmus/internal/cat"
	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/ptx"
)

// RMOSource is the .cat transcription of SPARC RMO of Fig. 15, using
// load-load-hazard-permitting SC-per-location and the no-thin-air check.
// The generic rmo relation is left parametric in the fence relation.
const RMOSource = `RMO
(* Fig. 15: RMO .cat file *)
let com = rf | co | fr
let po-loc-llh =
  WW(po-loc) | WR(po-loc) | RW(po-loc)
acyclic (po-loc-llh | com) as sc-per-loc-llh
let dp = addr | data | ctrl
acyclic (dp | rf) as no-thin-air
let rmo(fence) = dp | fence | rfe | co | fr
`

// PTXScopesSource is Fig. 16: RMO per scope. It extends RMOSource with
// per-scope fence relations and one acyclicity constraint per scope.
const PTXScopesSource = `
(* Fig. 16: RMO per scope *)
let sys-fence = membar.sys
let gl-fence = membar.gl | sys-fence
let cta-fence = membar.cta | gl-fence
let rmo-cta = rmo(cta-fence) & cta
let rmo-gl = rmo(gl-fence) & gl
let rmo-sys = rmo(sys-fence) & sys
acyclic rmo-cta as cta-constraint
acyclic rmo-gl as gl-constraint
acyclic rmo-sys as sys-constraint
`

// SCSource is Lamport sequential consistency, the strongest baseline: all
// communications must be consistent with program order.
const SCSource = `SC
let com = rf | co | fr
acyclic (po | com) as sc
`

// SorensenOpSource approximates the operational model of Sorensen et al.
// discussed in Sec. 6: like the PTX model, but a membar.cta orders accesses
// globally rather than only within its CTA (no "& cta" restriction). The
// paper shows this model is unsound: lb+membar.ctas is forbidden by it yet
// observed on GTX Titan and GTX 660.
const SorensenOpSource = `SorensenOperational
let com = rf | co | fr
let po-loc-llh =
  WW(po-loc) | WR(po-loc) | RW(po-loc)
acyclic (po-loc-llh | com) as sc-per-loc-llh
let dp = addr | data | ctrl
acyclic (dp | rf) as no-thin-air
let rmo(fence) = dp | fence | rfe | co | fr
let sys-fence = membar.sys
let gl-fence = membar.gl | sys-fence
let cta-fence = membar.cta | gl-fence
acyclic rmo(cta-fence) as cta-constraint
acyclic rmo(gl-fence) & gl as gl-constraint
acyclic rmo(sys-fence) & sys as sys-constraint
`

// Model is a memory-consistency model: a parsed .cat model lowered to a
// compiled slot program, plus an optional native twin used for
// cross-checking.
type Model struct {
	Name     string
	Source   string
	compiled *cat.Model
	prog     *cat.Program
	fp       string // content fingerprint of Source, fixed at compile time
	// native, when non-nil, must agree with the .cat evaluation on every
	// execution; Allows verifies this in debug mode.
	native func(x *axiom.Execution) cat.Results
	// policy is the static-prefilter policy the model's constraints
	// warrant (see static.go); PolicyNone for user-compiled sources.
	policy analysis.Policy
}

// compile panics on malformed embedded sources (a programming error): both
// the parse and the lowering to the slot program happen here, once per
// Model, so every verdict afterwards runs the compiled path.
func compile(name, src string) *Model {
	parsed := cat.MustParse(src)
	sum := sha256.Sum256([]byte(src))
	return &Model{Name: name, Source: src, compiled: parsed, prog: parsed.MustCompile(), fp: hex.EncodeToString(sum[:])}
}

// Fingerprint returns a content-addressed identity for the model: a hex
// SHA-256 of its .cat source, fixed at compile time. Two Model values built
// from the same source share a fingerprint even though they are distinct
// pointers, which is what content-addressed verdict caches key on (the name
// alone could collide across different sources).
func (m *Model) Fingerprint() string { return m.fp }

// PTX returns the paper's model of Nvidia GPUs: the concatenation of
// Figs. 15 and 16 (Sec. 5.3), with the native twin enabled.
func PTX() *Model {
	m := compile("PTX", RMOSource+PTXScopesSource)
	m.native = nativePTX
	m.policy = analysis.PolicyScoped
	return m
}

// RMO returns plain SPARC RMO (Fig. 15) with all fences treated at system
// scope, the CPU baseline the PTX model is derived from.
func RMO() *Model {
	m := compile("RMO", RMOSource+`
let any-fence = membar.cta | membar.gl | membar.sys
acyclic rmo(any-fence) as rmo-constraint
`)
	m.policy = analysis.PolicyFence
	return m
}

// SC returns Lamport sequential consistency.
func SC() *Model {
	m := compile("SC", SCSource)
	m.policy = analysis.PolicySC
	return m
}

// SorensenOp returns the unsound operational-model approximation of Sec. 6.
// Its cta-constraint orders every fence globally (no & cta), so it shares
// RMO's prefilter policy.
func SorensenOp() *Model {
	m := compile("SorensenOperational", SorensenOpSource)
	m.policy = analysis.PolicyFence
	return m
}

// ModelByName compiles a fresh builtin model by its command-line and wire
// name: ptx, sc, rmo, or op (the operational model Sec. 6 refutes).
func ModelByName(name string) (*Model, error) {
	switch name {
	case "ptx":
		return PTX(), nil
	case "sc":
		return SC(), nil
	case "rmo":
		return RMO(), nil
	case "op":
		return SorensenOp(), nil
	}
	return nil, fmt.Errorf("unknown model %q (known: ptx, sc, rmo, op)", name)
}

// Covers reports whether the test is within the model's documented scope
// (Sec. 5.5): only .cg accesses to global memory; .ca and .volatile
// accesses and shared-memory locations are outside it. Atomic RMWs are
// handled as an extension (their atomicity is enforced structurally by the
// enumerator). The returned string names the first violation.
func Covers(t *litmus.Test) (bool, string) {
	for _, th := range t.Threads {
		for _, inst := range th.Prog {
			switch v := inst.(type) {
			case ptx.Ld:
				if v.CacheOp != ptx.CacheCG {
					return false, fmt.Sprintf("thread %d: load with cache operator %q (model assumes .cg)", th.ID, v.CacheOp)
				}
				if v.Volatile {
					return false, fmt.Sprintf("thread %d: volatile load (not modelled)", th.ID)
				}
			case ptx.St:
				if v.CacheOp != ptx.CacheCG {
					return false, fmt.Sprintf("thread %d: store with cache operator %q (model assumes .cg)", th.ID, v.CacheOp)
				}
				if v.Volatile {
					return false, fmt.Sprintf("thread %d: volatile store (not modelled)", th.ID)
				}
			}
		}
	}
	for loc, sp := range t.MemMap {
		if sp != litmus.Global {
			return false, fmt.Sprintf("location %s in %s memory (model assumes global)", loc, sp)
		}
	}
	return true, ""
}

// Allows evaluates the model on one candidate execution via the compiled
// program (pooled scratch; safe for concurrent use).
func (m *Model) Allows(x *axiom.Execution) (cat.Results, error) {
	return m.AllowsScratch(x, nil)
}

// AllowsScratch evaluates the model on one candidate execution with an
// explicit evaluation scratch (see Program.NewScratch); per-worker loops
// over many executions use this to skip the pool. A nil scratch uses the
// program's pool.
func (m *Model) AllowsScratch(x *axiom.Execution, sc *cat.Scratch) (cat.Results, error) {
	res, err := m.prog.RunExec(x, sc)
	if err != nil {
		return nil, fmt.Errorf("core: model %s: %w", m.Name, err)
	}
	return res, nil
}

// NewScratch returns a reusable evaluation scratch for AllowsScratch.
func (m *Model) NewScratch() *cat.Scratch { return m.prog.NewScratch() }

// CrossCheck evaluates both the .cat interpretation and the native twin on
// x and reports an error if they disagree (design decision D5: the two
// implementations guard each other).
func (m *Model) CrossCheck(x *axiom.Execution) error {
	if m.native == nil {
		return nil
	}
	catRes, err := m.Allows(x)
	if err != nil {
		return err
	}
	natRes := m.native(x)
	if catRes.Allowed() != natRes.Allowed() {
		return fmt.Errorf("core: model %s: cat verdict %v disagrees with native verdict %v\ncat: %s\nnative: %s",
			m.Name, catRes.Allowed(), natRes.Allowed(), catRes, natRes)
	}
	return nil
}

// Verdict is the outcome of judging a litmus test against a model. All
// counts are weighted by symmetry-class size (axiom.Execution.Weight), so
// they equal the exhaustive enumeration's whatever pruning did.
type Verdict struct {
	Test       *litmus.Test
	Model      string
	Candidates int
	Allowed    int  // candidates the model allows
	Witnesses  int  // allowed candidates whose final state satisfies the condition
	Observable bool // Witnesses > 0: the final condition is allowed by the model
	Witness    *axiom.Execution

	// Visited counts the executions actually evaluated: the canonical
	// representatives the enumerator produced. Candidates - Visited is the
	// work symmetry pruning saved. 0 on verdicts rebuilt from stores that
	// predate pruning (read it through Pruned, which treats that as "none").
	Visited int

	// StaticSkipped marks a verdict decided by the static prefilter
	// without enumeration (see Model.StaticVerdict): Observable is
	// authoritative but all candidate counts are zero. StaticReason is the
	// prefilter's justification.
	StaticSkipped bool
	StaticReason  string
}

// Pruned returns the number of candidate executions skipped as
// symmetry-equivalent to a visited representative: Candidates - Visited,
// or 0 when Visited was not recorded.
func (v *Verdict) Pruned() int {
	if v.Visited <= 0 || v.Visited > v.Candidates {
		return 0
	}
	return v.Candidates - v.Visited
}

// String summarises the verdict in herd style. Statically decided
// verdicts have no candidate counts and say so instead.
func (v *Verdict) String() string {
	state := "Never"
	if v.Observable {
		state = "Sometimes"
	}
	if v.StaticSkipped {
		return fmt.Sprintf("Test %s: %s (static, enumeration skipped) under %s", v.Test.Name, state, v.Model)
	}
	return fmt.Sprintf("Test %s: %s (%d/%d candidates allowed, %d witnesses) under %s",
		v.Test.Name, state, v.Allowed, v.Candidates, v.Witnesses, v.Model)
}

// Opts selects how a verdict operation runs. The zero value is the
// default everywhere: auto parallelism, no static prefilter,
// axiom.DefaultOpts bounds.
type Opts struct {
	// Parallelism bounds the evaluating workers: 0 (auto) streams serially
	// and fans out to GOMAXPROCS workers only once the enumeration proves
	// big enough; 1 is serial; n > 1 fans out n workers from the start.
	// Every result is identical for every value.
	Parallelism int
	// Static puts the static prefilter in front of enumeration: when it
	// decides, the verdict comes back from Model.StaticVerdict without any
	// enumeration.
	Static bool
	// Enum bounds the enumeration. Zero fields take axiom.DefaultOpts
	// values, so the zero Enum is axiom.DefaultOpts(). The pruned-vs-
	// exhaustive differential oracle sets Enum.Exhaustive: its verdict
	// agrees with the pruned one on every count, the observable flag and
	// the witness content (the pruned Witness is the canonical —
	// enumeration-first — member of the exhaustive witness's symmetry
	// class), though witness indices and Visited differ.
	Enum axiom.Opts
}

// JudgeWith decides whether the test's final condition is allowed — the
// herd-style simulation of Sec. 5.4. Candidate executions stream from the
// enumerator straight into verdict-only model evaluation (never
// materialising the candidate set; see Model.ForEachVerdict), and the
// Witness is the first witnessing execution in enumeration order. The
// verdict is identical for every o.Parallelism. Cancelling ctx aborts the
// judgement mid-enumeration and returns ctx.Err(); the service passes
// request-scoped contexts so abandoned requests stop costing work.
func JudgeWith(ctx context.Context, m *Model, t *litmus.Test, o Opts) (*Verdict, error) {
	if o.Static {
		if v := m.StaticVerdict(t); v != nil {
			return v, nil
		}
		o.Static = false
	}
	v := &Verdict{Test: t, Model: m.Name}
	n, err := m.ForEachVerdict(ctx, t, o, func(_ int, x *axiom.Execution, allowed bool) error {
		v.Visited++
		if allowed {
			w := x.Weight()
			v.Allowed += w
			if t.Exists.Eval(x.Final) {
				v.Witnesses += w
				if v.Witness == nil {
					v.Witness = x
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	v.Candidates = n
	v.Observable = v.Witnesses > 0
	return v, nil
}

// Judge is JudgeWith under the background context and default Opts.
func Judge(m *Model, t *litmus.Test) (*Verdict, error) {
	return JudgeWith(context.Background(), m, t, Opts{})
}

// JudgeCtx is JudgeWith with only the parallelism set.
func JudgeCtx(ctx context.Context, m *Model, t *litmus.Test, parallelism int) (*Verdict, error) {
	return JudgeWith(ctx, m, t, Opts{Parallelism: parallelism})
}

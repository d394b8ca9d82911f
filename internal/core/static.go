package core

import (
	"github.com/weakgpu/gpulitmus/internal/analysis"
	"github.com/weakgpu/gpulitmus/internal/litmus"
)

// Policy returns the static-analysis policy the model's constraints
// warrant. Models compiled from user-supplied sources get PolicyNone: the
// prefilter then only ever reports value-analysis Forbidden, which is
// sound for any model.
func (m *Model) Policy() analysis.Policy { return m.policy }

// StaticVerdict statically judges the test under the model's policy
// (analysis.Prefilter) without enumerating. A decided verdict has
// StaticSkipped set, an authoritative Observable, the prefilter's
// justification in StaticReason, and zero candidate counts; nil means the
// prefilter cannot decide and the caller must enumerate. Decisions are
// sound with respect to enumeration: Forbidden ⇒ zero witnesses, Allowed ⇒
// at least one (the differential oracle in static_test.go holds this
// contract over the paper corpus and a randomized corpus).
func (m *Model) StaticVerdict(t *litmus.Test) *Verdict {
	res := analysis.Prefilter(t, m.policy)
	if res.Verdict == analysis.Unknown {
		return nil
	}
	return &Verdict{
		Test:          t,
		Model:         m.Name,
		Observable:    res.Verdict == analysis.Allowed,
		StaticSkipped: true,
		StaticReason:  res.Reason,
	}
}

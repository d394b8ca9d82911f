package core

import (
	"context"

	"github.com/weakgpu/gpulitmus/internal/analysis"
	"github.com/weakgpu/gpulitmus/internal/litmus"
)

// Repair binds the judge to the fence-repair synthesis engine
// (analysis.SynthesizeRepair): it searches for the minimal set of fence
// insertions/strengthenings that makes the test's exists-condition Never
// under the model, verifying every candidate with JudgeWith under o. The
// static prefilter always runs in front of those judgements (it is sound
// with respect to enumeration), whatever o.Static says. The result is
// deterministic for a given model and test: candidate order is static and
// the judge itself is deterministic, so every suggested fix is
// judge-verified and reproducible.
func Repair(ctx context.Context, m *Model, t *litmus.Test, o Opts) (*analysis.RepairResult, error) {
	o.Static = true
	oracle := func(mt *litmus.Test) (bool, error) {
		v, err := JudgeWith(ctx, m, mt, o)
		if err != nil {
			return false, err
		}
		return v.Observable, nil
	}
	return analysis.SynthesizeRepair(t, m.policy, oracle, analysis.RepairOptions{})
}

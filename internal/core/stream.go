package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"github.com/weakgpu/gpulitmus/internal/axiom"
	"github.com/weakgpu/gpulitmus/internal/cat"
	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/obs"
	"github.com/weakgpu/gpulitmus/internal/pool"
)

// This file is the streaming verdict pipeline: candidate executions flow
// from the axiom producer straight into model evaluation without ever
// materialising the full candidate set. Path derivation happens once per
// judgement (axiom.PrepareCtx memoizes it across the value-domain fixpoint
// iterations); production then proceeds unit by unit, where a unit is one
// path combination or, for a single-combination test, one chunk of its rf
// cross product (axiom.Enumeration.ComboChunks).
//
// There is one regime. Units stream serially on the calling goroutine
// until the run fans out; from then on the remaining units are produced
// and evaluated on the workers — each with its own axiom.Assembler and
// evaluation scratch — while pool.OrderedStream merges the verdicts back
// in exact enumeration order. A serial run is the one-worker case: it
// never fans out. Either way visit is called serially, in enumeration
// order, with the true index, and the MaxExecs bound fails at exactly the
// execution the serial stream fails at, so everything a caller aggregates
// is identical for every parallelism. Counts are weighted by
// Execution.Weight, so symmetry pruning never changes what a caller
// observes (see axiom.Opts.Exhaustive).

// autoFanOutMin is auto mode's one threshold, in evaluated executions. A
// multi-combination test streams serially until it has evaluated this
// many at a combination boundary, then fans the remaining combinations
// out; a single-combination test has no boundary, so it fans its rf chunks
// out from the start when ComboChunks estimates the combination at least
// this big. Below it, worker startup and the ordered merge cost more than
// they save. The count is of evaluations, not weighted candidates: a
// symmetry-pruned representative stands for many candidates but costs one
// evaluation. 128 sits on the measured plateau on a 2-core host, where
// 32–256 judge the multi-combination stress shapes alike and below 32 the
// litmus-sized tests start to fan out at a loss.
const autoFanOutMin = 128

// errVerdictStopped ends a worker's unit after it has emitted an
// evaluation error; the merge stops on that error first, so
// errVerdictStopped never reaches the caller.
var errVerdictStopped = errors.New("core: verdict stream stopped")

// errStaticVisit rejects Opts.Static where executions are to be visited.
var errStaticVisit = errors.New("core: a static decision has no executions to visit")

// execVerdict is one evaluated candidate on its way back to the ordered
// merge.
type execVerdict struct {
	x       *axiom.Execution
	allowed bool
	err     error
}

// ForEachVerdict enumerates the candidate executions of t under o.Enum
// and calls visit(i, x, allowed) for every produced candidate, where i is
// the execution's position in the produced stream (representative
// ordinals under symmetry pruning) and allowed is the model's
// verdict-only evaluation. visit is always called serially, in
// enumeration order, whatever o.Parallelism is (see Opts), so a callback
// needs no lock and the first witness it sees is the first in order.
//
// It returns the weighted number of candidates: symmetry pruning may
// produce one representative for a class of equivalent executions
// (x.Weight() > 1), and the count — like any weighted aggregate a caller
// builds — equals the exhaustive enumeration's.
//
// Cancelling ctx stops the producer promptly (checked per unit and per
// execution) and returns ctx.Err(). Any visit error stops the run and is
// returned. o.Static is an error: a static decision has no executions.
func (m *Model) ForEachVerdict(ctx context.Context, t *litmus.Test, o Opts, visit func(i int, x *axiom.Execution, allowed bool) error) (int, error) {
	if o.Static {
		return 0, errStaticVisit
	}
	if tr := obs.FromContext(ctx); tr.Enabled() {
		// Traced run: open the pipeline span (PrepareCtx nests "prepare"
		// under it) and time the visit/merge callback into PhaseMerge.
		sp, sctx := tr.StartSpan(ctx, "verdict")
		ctx = sctx
		defer sp.Finish()
		inner := visit
		visit = func(i int, x *axiom.Execution, allowed bool) error {
			t0 := time.Now()
			err := inner(i, x, allowed)
			tr.AddPhase(obs.PhaseMerge, time.Since(t0))
			return err
		}
	}
	enum, err := axiom.PrepareCtx(ctx, t, o.Enum)
	if err != nil {
		return 0, err
	}
	return m.streamVerdicts(ctx, enum, o.Parallelism, visit)
}

// streamVerdicts is the pipeline's one loop: units [0, u) stream serially
// here, units [u, units) fan out on the ordered merge once the fan-out
// condition holds at a unit boundary.
func (m *Model) streamVerdicts(ctx context.Context, enum *axiom.Enumeration, parallelism int, visit func(i int, x *axiom.Execution, allowed bool) error) (int, error) {
	workers, auto := parallelism, parallelism <= 0
	if auto {
		workers = runtime.GOMAXPROCS(0)
	}
	var a axiom.Assembler
	units, chunked := enum.Combos(), false
	if units == 1 && workers > 1 {
		// ComboChunks leaves the skeleton in a, so a combination that stays
		// serial is not built twice.
		chunks, estimate := enum.ComboChunks(0, &a)
		chunked = chunks > 1 && (!auto || estimate >= autoFanOutMin)
		if chunked {
			units = chunks
		}
	}
	produce := func(asm *axiom.Assembler, u int, emit func(*axiom.Execution) error) error {
		if chunked {
			return enum.StreamComboChunk(0, u, asm, emit)
		}
		return enum.StreamCombo(u, asm, emit)
	}
	// The remaining units fan out at the first boundary where at least two
	// are left and fanOutAt executions have been evaluated: at once under
	// explicit parallelism or a chunked combination, past the threshold in
	// auto mode.
	fanOutAt := 0
	if auto && !chunked {
		fanOutAt = autoFanOutMin
	}

	tr := obs.FromContext(ctx)
	sc := m.NewScratch()
	sc.SetTracer(tr)
	maxExecs := enum.Opts().MaxExecs
	count, visits := 0, 0
	// admit counts x against the MaxExecs bound at its position in
	// enumeration order, after the cancellation check.
	admit := func(x *axiom.Execution) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		w := x.Weight()
		if count+w > maxExecs {
			return enum.BoundError()
		}
		count += w
		return nil
	}
	deliver := func(x *axiom.Execution, allowed bool) error {
		i := visits
		visits++
		return visit(i, x, allowed)
	}

	serial := func(x *axiom.Execution) error {
		if err := admit(x); err != nil {
			return err
		}
		allowed, err := m.verdictOf(x, sc)
		if err != nil {
			return err
		}
		return deliver(x, allowed)
	}
	u := 0
	for ; u < units; u++ {
		if workers > 1 && units-u > 1 && visits >= fanOutAt {
			break
		}
		if err := ctx.Err(); err != nil {
			return count, err
		}
		if err := produce(&a, u, serial); err != nil {
			return count, err
		}
	}
	if u == units {
		return count, nil
	}

	// Fan out. The calling goroutine only merges from here on, so worker 0
	// takes over its scratch and Assembler.
	workers = min(workers, units-u)
	scratches := make([]*cat.Scratch, workers)
	assemblers := make([]*axiom.Assembler, workers)
	scratches[0], assemblers[0] = sc, &a
	for w := 1; w < workers; w++ {
		scratches[w] = m.NewScratch()
		scratches[w].SetTracer(tr)
		assemblers[w] = new(axiom.Assembler)
	}
	err := pool.OrderedStream(units-u, workers, 4*workers,
		func(w, i int, emit func(execVerdict) error) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			return produce(assemblers[w], u+i, func(x *axiom.Execution) error {
				allowed, err := m.verdictOf(x, scratches[w])
				if e := emit(execVerdict{x: x, allowed: allowed, err: err}); e != nil || err == nil {
					return e
				}
				// The evaluation error is delivered at this execution's
				// position in the merge, so the error a caller sees is
				// deterministic.
				return errVerdictStopped
			})
		},
		func(_ int, v execVerdict) error {
			if err := admit(v.x); err != nil {
				return err
			}
			if v.err != nil {
				return v.err
			}
			return deliver(v.x, v.allowed)
		})
	return count, err
}

// verdictOf is the model's verdict-only evaluation of x, naming the model
// in evaluation failures (multi-model sweeps need to know which model's
// program failed).
func (m *Model) verdictOf(x *axiom.Execution, sc *cat.Scratch) (bool, error) {
	allowed, err := m.prog.RunExecVerdict(x, sc)
	if err != nil {
		return false, fmt.Errorf("core: model %s: %w", m.Name, err)
	}
	return allowed, nil
}

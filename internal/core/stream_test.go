package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"github.com/weakgpu/gpulitmus/internal/axiom"
	"github.com/weakgpu/gpulitmus/internal/litmus"
)

// verdictRecord is one visit call, comparable across pipeline modes.
type verdictRecord struct {
	idx     int
	exec    string
	allowed bool
}

func collectVerdicts(t *testing.T, m *Model, test *litmus.Test, parallelism int) []verdictRecord {
	t.Helper()
	var out []verdictRecord
	weighted := 0
	n, err := m.ForEachVerdict(context.Background(), test, Opts{Parallelism: parallelism}, func(i int, x *axiom.Execution, allowed bool) error {
		out = append(out, verdictRecord{idx: i, exec: x.String(), allowed: allowed})
		weighted += x.Weight()
		return nil
	})
	if err != nil {
		t.Fatalf("%s: parallelism %d: %v", test.Name, parallelism, err)
	}
	if n != weighted {
		t.Fatalf("%s: parallelism %d: %d candidates reported, visited weights sum to %d", test.Name, parallelism, n, weighted)
	}
	return out
}

// TestForEachVerdictComboOrderExact is the differential for the ordered
// pipeline: at every parallelism, auto included, visit must receive
// exactly the serial stream — same executions, same verdicts, same
// indices, in the same order — not merely the same multiset. stressTest(3)
// has 64 path combinations, so explicit parallelism exercises the ordered
// merge across many worker/combination boundaries; fencedStressTest(2)
// has 16 combinations and crosses the auto threshold mid-stream, so auto
// mode hands over from the serial prefix to the fan-out; soloChunkTest has
// one combination with four rf chunks, so the same parallelisms exercise
// the chunked merge.
func TestForEachVerdictComboOrderExact(t *testing.T) {
	tests := append([]*litmus.Test{}, litmus.PaperTests()...)
	tests = append(tests, stressTest(3), fencedStressTest(2), soloChunkTest())
	models := []*Model{PTX(), SC()}
	for _, test := range tests {
		for _, m := range models {
			serial := collectVerdicts(t, m, test, 1)
			for _, par := range []int{0, 2, 4, 16} {
				got := collectVerdicts(t, m, test, par)
				if len(got) != len(serial) {
					t.Fatalf("%s/%s: parallelism %d visited %d executions, serial %d",
						test.Name, m.Name, par, len(got), len(serial))
				}
				for i := range got {
					if got[i] != serial[i] {
						t.Fatalf("%s/%s: parallelism %d: visit %d differs:\n%+v\nvs serial\n%+v",
							test.Name, m.Name, par, i, got[i], serial[i])
					}
				}
			}
		}
	}
}

// TestForEachVerdictComboCancelMidVisit pins prompt, deterministic
// cancellation under combo fan-out: visits are serialised at the ordered
// merge, so cancelling inside visit k stops the stream with exactly k+1
// visits delivered.
func TestForEachVerdictComboCancelMidVisit(t *testing.T) {
	test := stressTest(3)
	ctx, cancel := context.WithCancel(context.Background())
	seen := 0
	_, err := PTX().ForEachVerdict(ctx, test, Opts{Parallelism: 4}, func(int, *axiom.Execution, bool) error {
		seen++
		if seen == 4 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if seen != 4 {
		t.Errorf("saw %d executions after cancelling at the 4th, want exactly 4", seen)
	}
}

// TestForEachVerdictComboVisitError pins deterministic failure: an error
// from visit k aborts the run having delivered exactly k+1 visits,
// regardless of how production was scheduled.
func TestForEachVerdictComboVisitError(t *testing.T) {
	boom := errors.New("boom")
	test := stressTest(3)
	for _, par := range []int{1, 4} {
		seen := 0
		_, err := PTX().ForEachVerdict(context.Background(), test, Opts{Parallelism: par}, func(i int, _ *axiom.Execution, _ bool) error {
			seen++
			if i == 9 {
				return fmt.Errorf("visit %d: %w", i, boom)
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("parallelism %d: err = %v, want boom", par, err)
		}
		if seen != 10 {
			t.Errorf("parallelism %d: %d visits before the error, want exactly 10", par, seen)
		}
	}
}

// TestForEachVerdictComboParallelRace drives the fan-out with more
// workers than cores and an unlocked reduction in visit, for the -race CI
// step: visit runs serially, so the reduction needs no lock.
func TestForEachVerdictComboParallelRace(t *testing.T) {
	test := stressTest(3)
	allowed := 0
	n, err := PTX().ForEachVerdict(context.Background(), test, Opts{Parallelism: 8}, func(_ int, _ *axiom.Execution, ok bool) error {
		if ok {
			allowed++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 384 {
		t.Fatalf("stress-3w: %d candidates, want 384", n)
	}
	if allowed == 0 {
		t.Fatal("stress-3w: no allowed executions")
	}
}

// TestForEachVerdictRejectsStatic: a static decision has no executions to
// visit, so Opts.Static is an error and visit never runs.
func TestForEachVerdictRejectsStatic(t *testing.T) {
	_, err := PTX().ForEachVerdict(context.Background(), litmus.CoRR(), Opts{Static: true}, func(int, *axiom.Execution, bool) error {
		t.Error("visit called under Opts.Static")
		return nil
	})
	if err == nil {
		t.Fatal("ForEachVerdict accepted Opts.Static")
	}
}

package core

import (
	"context"
	"errors"
	"testing"

	"github.com/weakgpu/gpulitmus/internal/axiom"
	"github.com/weakgpu/gpulitmus/internal/litmus"
)

func TestJudgeCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, par := range []int{1, 0, 4} {
		if _, err := JudgeCtx(ctx, PTX(), litmus.CoRR(), par); !errors.Is(err, context.Canceled) {
			t.Errorf("parallelism %d: err = %v, want context.Canceled", par, err)
		}
	}
}

func TestForEachVerdictCtxCancelMidStream(t *testing.T) {
	// stressTest enumerates hundreds of candidates; cancel after a few and
	// check the producer stops instead of exhausting the enumeration.
	test := stressTest(3)
	total, err := PTX().ForEachVerdict(context.Background(), test, Opts{Parallelism: 1}, func(int, *axiom.Execution, bool) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if total < 16 {
		t.Fatalf("stress test enumerates only %d candidates; test needs a bigger stream", total)
	}

	ctx, cancel := context.WithCancel(context.Background())
	seen := 0
	_, err = PTX().ForEachVerdict(ctx, test, Opts{Parallelism: 1}, func(int, *axiom.Execution, bool) error {
		seen++
		if seen == 4 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if seen >= total {
		t.Errorf("saw %d of %d candidates; cancellation did not stop the stream early", seen, total)
	}
}

func TestForEachVerdictCtxCancelParallel(t *testing.T) {
	// With an explicit worker pipeline the producer must unblock and the
	// call must return ctx.Err() even while workers are mid-flight.
	test := stressTest(3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := PTX().ForEachVerdict(ctx, test, Opts{Parallelism: 4}, func(int, *axiom.Execution, bool) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestJudgeCtxBackgroundMatchesJudge(t *testing.T) {
	for _, test := range []*litmus.Test{litmus.CoRR(), litmus.MP(litmus.NoFence)} {
		want, err := Judge(PTX(), test)
		if err != nil {
			t.Fatal(err)
		}
		got, err := JudgeCtx(context.Background(), PTX(), test, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("%s: JudgeCtx %q != Judge %q", test.Name, got, want)
		}
	}
}

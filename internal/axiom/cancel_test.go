package axiom

import (
	"context"
	"errors"
	"testing"

	"github.com/weakgpu/gpulitmus/internal/litmus"
)

// prepareStream is the production path: PrepareCtx, then StreamCtx, both
// under ctx.
func prepareStream(ctx context.Context, test *litmus.Test, yield func(*Execution) error) error {
	en, err := PrepareCtx(ctx, test, DefaultOpts())
	if err != nil {
		return err
	}
	return en.StreamCtx(ctx, yield)
}

func TestPrepareCtxStreamCancelledUpFront(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	yields := 0
	err := prepareStream(ctx, litmus.CoRR(), func(*Execution) error {
		yields++
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if yields != 0 {
		t.Errorf("yielded %d executions after up-front cancellation", yields)
	}
}

func TestPrepareCtxStreamCancelMidStream(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	yields := 0
	err := prepareStream(ctx, litmus.SBGlobal(), func(*Execution) error {
		yields++
		if yields == 2 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if yields != 2 {
		t.Errorf("yielded %d executions, want exactly 2 (cancellation checked per execution)", yields)
	}
}

func TestPrepareCtxStreamMatchesEnumerate(t *testing.T) {
	want, err := Enumerate(litmus.CoRR(), DefaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	if err := prepareStream(context.Background(), litmus.CoRR(), func(*Execution) error {
		got++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != len(want) {
		t.Errorf("ctx stream yielded %d executions, Enumerate built %d", got, len(want))
	}
}

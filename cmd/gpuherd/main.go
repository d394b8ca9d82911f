// Command gpuherd decides whether litmus-test outcomes are allowed by a
// memory-consistency model, in the manner of the herd tool (Sec. 5 of the
// paper). The default model is the paper's PTX model (RMO per scope),
// evaluated by the compiled relation engine.
//
// Usage:
//
//	gpuherd -model ptx coRR mp-L1 test.litmus
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	gpulitmus "github.com/weakgpu/gpulitmus"
)

func main() {
	switch err := run(os.Args[1:], os.Stdout); {
	case err == nil:
	case errors.Is(err, errNoTests) || errors.Is(err, errBadModel):
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	case errors.Is(err, errFlagParse):
		os.Exit(2) // the FlagSet already printed the error and usage
	default:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

var (
	errNoTests   = fmt.Errorf("gpuherd: no tests given")
	errBadModel  = fmt.Errorf("gpuherd: unknown model")
	errFlagParse = fmt.Errorf("gpuherd: bad flags")
)

// run executes the command against argv, writing results to w. It is the
// whole command minus process concerns, so tests can drive it directly.
func run(argv []string, w io.Writer) error {
	fs := flag.NewFlagSet("gpuherd", flag.ContinueOnError)
	modelName := fs.String("model", "ptx", "model: ptx, sc, rmo, or op (the refuted operational model)")
	verbose := fs.Bool("v", false, "print a witness execution when the outcome is allowed")
	par := fs.Int("j", 0, "evaluation parallelism: 0 auto (serial below the pipeline threshold), 1 serial, n>1 workers; verdicts are identical for every choice")
	static := fs.Bool("static", false, "run the static prefilter first: statically decided verdicts skip enumeration (marked in the output); undecided tests enumerate as usual")
	trace := fs.Bool("trace", false, "print a per-test phase table (parse/prepare/enumerate/eval/merge wall time and producer counters) after each verdict")
	repair := fs.Bool("repair", false, "after an Allowed verdict, synthesize and print the minimal judge-verified fence repair making the behaviour Never under the model")
	if err := fs.Parse(argv); err != nil {
		if err == flag.ErrHelp {
			return nil
		}
		return errFlagParse
	}

	var model *gpulitmus.Model
	switch *modelName {
	case "ptx":
		model = gpulitmus.PTXModel()
	case "sc":
		model = gpulitmus.SCModel()
	case "rmo":
		model = gpulitmus.RMOModel()
	case "op":
		model = gpulitmus.OperationalModel()
	default:
		return fmt.Errorf("%w %q", errBadModel, *modelName)
	}

	if fs.NArg() == 0 {
		return errNoTests
	}
	// One content-addressed memo for the invocation: repeating a test on
	// the command line (or naming two files with identical content) costs
	// one enumeration, exactly as in the gpulitmusd service.
	memo := gpulitmus.NewMemo()
	for _, arg := range fs.Args() {
		// Each argument gets its own trace, so the phase table after a
		// verdict covers exactly that test's pipeline. A repeated argument
		// joins the memo's cached verdict and its table shows no pipeline
		// phases — the work happened under the first occurrence's trace.
		ctx := context.Background()
		var tr *gpulitmus.Trace
		if *trace {
			tr = gpulitmus.NewTrace("")
			ctx = gpulitmus.WithTrace(ctx, tr)
		}
		test, err := resolveTest(ctx, arg)
		if err != nil {
			return err
		}
		if ok, reason := gpulitmus.ModelCovers(test); !ok && *modelName == "ptx" {
			fmt.Fprintf(w, "Test %s: outside the model's documented scope (%s); verdict is advisory\n", test.Name, reason)
		}
		v, err := memo.Verdict(ctx, model, test, gpulitmus.Opts{Parallelism: *par, Static: *static})
		if err != nil {
			return err
		}
		if v.Test != test {
			// Content-addressed cache hit from an identically-shaped test
			// under another name: render this argument's own name (counts
			// and witness are identical by construction).
			clone := *v
			clone.Test = test
			v = &clone
		}
		fmt.Fprintln(w, v)
		if *verbose && v.Witness != nil {
			fmt.Fprintln(w, v.Witness)
		}
		if *repair && v.Observable {
			r, err := gpulitmus.RepairUnder(model, test)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "Repair %s: %s\n", test.Name, r.Summary())
		}
		if tr != nil {
			fmt.Fprint(w, tr.Snapshot().PhaseTable())
		}
	}
	return nil
}

func resolveTest(ctx context.Context, arg string) (*gpulitmus.Test, error) {
	if t, err := gpulitmus.TestByName(arg); err == nil {
		return t, nil
	}
	src, err := os.ReadFile(arg)
	if err != nil {
		return nil, fmt.Errorf("gpuherd: %q is neither a known test nor a readable file: %w", arg, err)
	}
	return gpulitmus.ParseTestCtx(ctx, string(src))
}

// Command optcheck validates that the (simulated) toolchain did not
// reorder, remove or duplicate the memory accesses of a litmus test — the
// Sec. 4.4 methodology. Miscompilation flags emulate the toolchain bugs of
// Table 2 so their detection can be demonstrated.
//
// Usage:
//
//	optcheck -O 3 coRR
//	optcheck -O 3 -bug volatile-reorder coRR   # CUDA 5.5 emulation: caught
//
// Exit status is 0 when every test's accesses are preserved, 1 when a
// miscompilation was detected (or a test failed to load), 2 on usage
// errors.
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
	case errors.Is(err, errMiscompiled):
		os.Exit(1) // findings already reported on stdout
	case errors.Is(err, errNoTests) || errors.Is(err, errBadLevel) || errors.Is(err, errBadBug):
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
	errNoTests     = fmt.Errorf("optcheck: no tests given")
	errBadLevel    = fmt.Errorf("optcheck: bad optimisation level")
	errBadBug      = fmt.Errorf("optcheck: unknown bug")
	errFlagParse   = fmt.Errorf("optcheck: bad flags")
	errMiscompiled = fmt.Errorf("optcheck: miscompilation detected")
)

// run executes the command against argv, writing results to w. It is the
// whole command minus process concerns, so tests can drive it directly;
// errMiscompiled reports that at least one test was miscompiled.
func run(argv []string, w io.Writer) error {
	fs := flag.NewFlagSet("optcheck", flag.ContinueOnError)
	level := fs.Int("O", 3, "optimisation level 0-3")
	bug := fs.String("bug", "", "emulated miscompilation: volatile-reorder, eliminate-loads, remove-fences, reorder-load-cas")
	if err := fs.Parse(argv); err != nil {
		if err == flag.ErrHelp {
			return nil
		}
		return errFlagParse
	}

	if *level < 0 || *level > 3 {
		return fmt.Errorf("%w %d", errBadLevel, *level)
	}
	opts := gpulitmus.CompileOptions{Level: gpulitmus.CompileLevel(*level)}
	switch *bug {
	case "":
	case "volatile-reorder":
		opts.VolatileReorderBug = true
	case "eliminate-loads":
		opts.EliminateRedundantLoads = true
	case "remove-fences":
		opts.RemoveFencesBetweenLoads = true
	case "reorder-load-cas":
		opts.ReorderLoadCAS = true
	default:
		return fmt.Errorf("%w %q", errBadBug, *bug)
	}

	if fs.NArg() == 0 {
		return errNoTests
	}
	miscompiled := false
	for _, arg := range fs.Args() {
		test, err := gpulitmus.ResolveTest(context.Background(), arg)
		if err != nil {
			return fmt.Errorf("optcheck: %w", err)
		}
		vs, err := gpulitmus.CheckCompile(test, opts)
		if err != nil {
			return err
		}
		if len(vs) == 0 {
			fmt.Fprintf(w, "%s: OK (accesses preserved)\n", test.Name)
			continue
		}
		miscompiled = true
		fmt.Fprintf(w, "%s: MISCOMPILED\n", test.Name)
		for _, v := range vs {
			fmt.Fprintf(w, "  %s\n", v.Error())
		}
	}
	if miscompiled {
		return errMiscompiled
	}
	return nil
}

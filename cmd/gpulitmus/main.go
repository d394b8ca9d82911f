// Command gpulitmus runs GPU litmus tests on a simulated chip under stress
// incantations and prints final-state histograms, in the manner of the
// litmus tool (Sec. 4.2 of the paper). Multiple tests execute concurrently
// through the campaign engine; output order always follows argument order.
//
// Usage:
//
//	gpulitmus -chip Titan -runs 100000 coRR mp-L1 test.litmus
//
// Arguments are paper test names (see -list) or litmus files in the
// Fig. 12 format.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	gpulitmus "github.com/weakgpu/gpulitmus"
)

func main() {
	switch err := run(os.Args[1:], os.Stdout, os.Stderr); {
	case err == nil:
	case err == errNoTests:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	case err == errFlagParse:
		os.Exit(2) // the FlagSet already printed the error and usage
	default:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

var (
	errNoTests   = fmt.Errorf("gpulitmus: no tests given (try -list)")
	errFlagParse = fmt.Errorf("gpulitmus: bad flags")
)

// run executes the command against argv, writing results to w and live
// -progress lines to ew (stderr in main, so result output stays
// machine-readable). It is the whole command minus process concerns, so
// tests can drive it directly.
func run(argv []string, w, ew io.Writer) error {
	fs := flag.NewFlagSet("gpulitmus", flag.ContinueOnError)
	chipName := fs.String("chip", "Titan", "simulated chip (short name from Table 1)")
	runs := fs.Int("runs", 100000, "iterations per test")
	seed := fs.Int64("seed", 1, "base seed")
	incant := fs.String("incant", "ms+ts+tr", "incantations: +-separated subset of ms,bc,ts,tr, or 'none'")
	list := fs.Bool("list", false, "list built-in paper tests and exit")
	kernel := fs.Bool("kernel", false, "print the generated CUDA-style kernel instead of running (Sec. 4.2)")
	parallelism := fs.Int("par", 0, "campaign worker pool size (0 = GOMAXPROCS; results never depend on it)")
	progress := fs.Bool("progress", false, "print a live line to stderr as each test starts and finishes (results on stdout are unchanged)")
	if err := fs.Parse(argv); err != nil {
		if err == flag.ErrHelp {
			return nil
		}
		return errFlagParse
	}

	if *list {
		for _, t := range gpulitmus.PaperTests() {
			fmt.Fprintf(w, "%-24s %s\n", t.Name, t.Doc)
		}
		return nil
	}
	if fs.NArg() == 0 {
		return errNoTests
	}
	chip, err := gpulitmus.ChipByName(*chipName)
	if err != nil {
		return err
	}
	inc, err := parseIncant(*incant)
	if err != nil {
		return err
	}
	tests := make([]*gpulitmus.Test, fs.NArg())
	for i, arg := range fs.Args() {
		if tests[i], err = gpulitmus.ResolveTest(context.Background(), arg); err != nil {
			return fmt.Errorf("gpulitmus: %w", err)
		}
	}
	if *kernel {
		for _, test := range tests {
			src, err := gpulitmus.GenerateKernel(test, chip, inc)
			if err != nil {
				return err
			}
			fmt.Fprint(w, src)
		}
		return nil
	}
	c := gpulitmus.Campaign{
		Tests:       tests,
		Chips:       []*gpulitmus.Chip{chip},
		Incants:     []gpulitmus.Incant{inc},
		Runs:        *runs,
		Parallelism: *parallelism,
		// Every test runs from the same base seed, as the serial loop this
		// replaced did.
		SeedFn: func(gpulitmus.CampaignJob) int64 { return *seed },
	}
	if *progress {
		// With one chip and one incantation the cell index is the test
		// index. Events arrive concurrently from the worker pool, so the
		// sink serialises its writes.
		var mu sync.Mutex
		c.Sink = func(ev gpulitmus.CampaignCellEvent) {
			mu.Lock()
			defer mu.Unlock()
			name := tests[ev.Index].Name
			switch ev.Kind {
			case gpulitmus.CellStart:
				fmt.Fprintf(ew, "gpulitmus: cell %d/%d %s start seed=%d\n", ev.Index+1, len(tests), name, ev.Seed)
			case gpulitmus.CellError:
				fmt.Fprintf(ew, "gpulitmus: cell %d/%d %s error after %v: %s\n", ev.Index+1, len(tests), name, ev.Elapsed.Round(time.Microsecond), ev.Err)
			default:
				fmt.Fprintf(ew, "gpulitmus: cell %d/%d %s done runs=%d matches=%d in %v\n", ev.Index+1, len(tests), name, ev.Runs, ev.Matches, ev.Elapsed.Round(time.Microsecond))
			}
		}
	}
	res, err := gpulitmus.Sweep(c)
	if err != nil {
		return err
	}
	for ti := range res.Tests {
		fmt.Fprintln(w, res.Outcome(ti, 0, 0))
	}
	return nil
}

// parseIncant delegates to the canonical parser in gpulitmus.ParseIncant,
// swapping the internal package prefix for this command's own.
func parseIncant(s string) (gpulitmus.Incant, error) {
	inc, err := gpulitmus.ParseIncant(s)
	if err != nil {
		return inc, fmt.Errorf("gpulitmus: %s", strings.TrimPrefix(err.Error(), "chip: "))
	}
	return inc, nil
}

package apps

import (
	"strings"
	"testing"

	"github.com/weakgpu/gpulitmus/internal/chip"
)

const appRuns = 1500

func TestDotProductBrokenOnTitan(t *testing.T) {
	rep, err := DotProduct(false, 2).Run(chip.GTXTitan, chip.Default(), appRuns, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Matches == 0 {
		t.Error("the unfenced dot product must lose updates on Titan")
	}
}

func TestDotProductFixedEverywhere(t *testing.T) {
	for _, p := range chip.All() {
		rep, err := DotProduct(true, 2).Run(p, chip.Default(), appRuns, 2)
		if err != nil {
			t.Fatalf("%s: %v", p.ShortName, err)
		}
		if rep.Matches != 0 {
			t.Errorf("%s: fenced dot product wrong in %d runs", p.ShortName, rep.Matches)
		}
	}
}

func TestDotProductCorrectOnGTX280(t *testing.T) {
	rep, err := DotProduct(false, 2).Run(chip.GTX280, chip.Default(), appRuns, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Matches != 0 {
		t.Errorf("GTX 280 must not lose updates even unfenced, got %d", rep.Matches)
	}
}

func TestDotProductThreeContributors(t *testing.T) {
	rep, err := DotProduct(true, 3).Run(chip.TeslaC2075, chip.Default(), 800, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Matches != 0 {
		t.Errorf("3-way fenced dot product wrong in %d runs", rep.Matches)
	}
	rep, err = DotProduct(false, 3).Run(chip.TeslaC2075, chip.Default(), 800, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Matches == 0 {
		t.Error("3-way unfenced dot product must lose updates on TesC")
	}
}

func TestDequeLosesTasks(t *testing.T) {
	// The dlb-mp rate is tiny in the paper too (4-65 per 100k, Fig. 7);
	// this deterministic seed/run combination exhibits it.
	rep, err := WorkStealingDeque(false).Run(chip.TeslaC2075, chip.Default(), 30000, 99)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Matches == 0 {
		t.Error("the unfenced deque must lose a task on TesC")
	}
	rep, err = WorkStealingDeque(true).Run(chip.TeslaC2075, chip.Default(), appRuns, 7)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Matches != 0 {
		t.Errorf("the fenced deque lost %d tasks", rep.Matches)
	}
}

func TestTransactionIsolation(t *testing.T) {
	rep, err := TransactionIsolation(false).Run(chip.GTXTitan, chip.Default(), 4000, 8)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Matches == 0 {
		t.Error("the broken He-Yu lock must violate isolation on Titan")
	}
	rep, err = TransactionIsolation(true).Run(chip.GTXTitan, chip.Default(), appRuns, 9)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Matches != 0 {
		t.Errorf("the repaired He-Yu lock violated isolation %d times", rep.Matches)
	}
}

func TestSummary(t *testing.T) {
	s, err := Summary(chip.GTX750, chip.Default(), 200, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "dot-product") || !strings.Contains(s, "transactions") {
		t.Errorf("summary:\n%s", s)
	}
}

func TestAllAppsValidate(t *testing.T) {
	for _, a := range All() {
		if err := a.Test.Validate(); err != nil {
			t.Errorf("%s: %v", a.Name, err)
		}
	}
}

func TestReportString(t *testing.T) {
	rep := &Report{App: "x", Chip: "Titan", Runs: 10, Matches: 0}
	if !strings.Contains(rep.String(), "correct") {
		t.Errorf("report: %s", rep)
	}
	rep.Matches = 3
	if !strings.Contains(rep.String(), "INCORRECT in 3/10") {
		t.Errorf("report: %s", rep)
	}
}

func TestRunZeroRuns(t *testing.T) {
	rep, err := DotProduct(false, 2).Run(chip.GTXTitan, chip.Default(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runs != 0 || rep.Matches != 0 {
		t.Errorf("zero runs: got %d runs, %d matches", rep.Runs, rep.Matches)
	}
}

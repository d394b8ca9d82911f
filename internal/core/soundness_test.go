package core

import (
	"fmt"
	"sync"
	"testing"

	"github.com/weakgpu/gpulitmus/internal/axiom"
	"github.com/weakgpu/gpulitmus/internal/chip"
	"github.com/weakgpu/gpulitmus/internal/diy"
	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/sim"
)

// TestSimulatorSoundness is the Sec. 5.4 property scaled down: every final
// state the simulator produces for a model-covered test must be the final
// state of some model-allowed candidate execution. It runs each covered
// paper test on the most relaxed profiles.
func TestSimulatorSoundness(t *testing.T) {
	m := PTX()
	profiles := []*chip.Profile{chip.TeslaC2075, chip.GTXTitan, chip.HD7970}
	for _, test := range litmus.PaperTests() {
		if ok, _ := Covers(test); !ok {
			continue
		}
		allowed, err := allowedStates(m, test)
		if err != nil {
			t.Fatalf("%s: %v", test.Name, err)
		}
		for _, p := range profiles {
			for i := 0; i < 400; i++ {
				res, err := sim.Run(test, p, chip.Default(), int64(i)*31+7)
				if err != nil {
					t.Fatalf("%s on %s: %v", test.Name, p.ShortName, err)
				}
				key := stateKey(test, res.State)
				if !allowed[key] {
					t.Errorf("%s on %s seed %d: simulator state %s not allowed by the model", test.Name, p.ShortName, i, key)
					break
				}
			}
		}
	}
}

// allowedStates returns the stateKeys of the final states of the
// model-allowed candidate executions of the test.
func allowedStates(m *Model, test *litmus.Test) (map[string]bool, error) {
	execs, err := axiom.Enumerate(test, axiom.DefaultOpts())
	if err != nil {
		return nil, err
	}
	allowed := make(map[string]bool)
	for _, x := range execs {
		res, err := m.Allows(x)
		if err != nil {
			return nil, err
		}
		if res.Allowed() {
			allowed[stateKey(test, x.Final)] = true
		}
	}
	return allowed, nil
}

// soundCorpus is the diy corpus model validation runs on, with each
// test's allowed final states computed on first use.
var soundCorpus struct {
	once    sync.Once
	tests   []*litmus.Test
	mu      sync.Mutex
	allowed map[int]map[string]bool
}

// FuzzSimSound is the Sec. 5.4 soundness property driven by the fuzzer:
// from a fuzzed (diy corpus index, chip index, seed), every final state of
// 200 iterations of one reused simulator machine must be the final state
// of some PTX-allowed execution. Tests outside the model's scope (Covers)
// are skipped. CI runs a 15s burst next to FuzzParse and FuzzRepair.
func FuzzSimSound(f *testing.F) {
	for _, in := range []struct {
		test, chip uint
		seed       int64
	}{{0, 4, 1}, {7, 2, 99}, {31, 7, -5}, {64, 3, 1 << 40}, {120, 1, 12345}} {
		f.Add(in.test, in.chip, in.seed)
	}
	m := PTX()
	f.Fuzz(func(t *testing.T, ti, ci uint, seed int64) {
		soundCorpus.once.Do(func() {
			for _, g := range diy.Generate(diy.DefaultPool(), 4, 400) {
				soundCorpus.tests = append(soundCorpus.tests, g.Test)
			}
			soundCorpus.allowed = make(map[int]map[string]bool)
		})
		i := int(ti % uint(len(soundCorpus.tests)))
		test := soundCorpus.tests[i]
		p := chip.All()[ci%uint(len(chip.All()))]
		if ok, _ := Covers(test); !ok {
			t.Skip()
		}
		soundCorpus.mu.Lock()
		allowed, ok := soundCorpus.allowed[i]
		if !ok {
			var err error
			if allowed, err = allowedStates(m, test); err != nil {
				soundCorpus.mu.Unlock()
				t.Fatalf("%s: %v", test.Name, err)
			}
			soundCorpus.allowed[i] = allowed
		}
		soundCorpus.mu.Unlock()

		mach, err := sim.NewMachine(test, p, chip.Default())
		if err != nil {
			t.Fatalf("%s: %v", test.Name, err)
		}
		for k := int64(0); k < 200; k++ {
			if err := mach.Run(seed + k); err != nil {
				t.Fatalf("%s on %s seed %d: %v", test.Name, p.ShortName, seed+k, err)
			}
			if key := stateKey(test, mach); !allowed[key] {
				t.Fatalf("%s on %s seed %d: simulator state %s not allowed by the model\n%s", test.Name, p.ShortName, seed+k, key, test)
			}
		}
	})
}

// stateKey projects a final state onto the registers read by the test's
// condition atoms plus final memory, giving a comparable fingerprint.
func stateKey(test *litmus.Test, s litmus.State) string {
	key := ""
	for _, a := range litmus.CondAtoms(test.Exists) {
		switch at := a.(type) {
		case litmus.RegEq:
			v, _ := s.Reg(at.Thread, at.Reg)
			key += fmt.Sprintf("%d:%s=%d;", at.Thread, at.Reg, v)
		case litmus.MemEq:
			v, _ := s.Mem(at.Loc)
			key += fmt.Sprintf("%s=%d;", at.Loc, v)
		}
	}
	for _, loc := range test.Locations() {
		v, _ := s.Mem(loc)
		key += fmt.Sprintf("%s=%d;", loc, v)
	}
	return key
}

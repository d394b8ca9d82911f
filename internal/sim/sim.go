// Package sim is an operational simulator of the GPU execution and memory
// hierarchy of Sec. 2 of the paper, substituting for the silicon the paper
// ran on (see DESIGN.md). It models SMs with non-coherent L1 caches and
// per-CTA shared memory, per-thread store buffers, a two-stage store path
// (store buffer → SM-visible queue → L2), split-transaction loads, scoped
// fences, and L2-atomic read-modify-writes.
//
// Weak behaviours emerge from explicit micro-architectural mechanisms gated
// by per-chip probabilities (package chip): delayed stores (sb), delayed and
// reordered load completion (mp, lb, coRR), out-of-order L2 commit (write
// reordering under membar.cta), residual stale L1 lines (mp-L1), and
// unreliable .cg evictions (coRR-L2-L1).
//
// The simulator is deliberately sound with respect to the paper's PTX model
// for the tests the model covers (.cg accesses to global memory): every
// outcome it can produce is allowed by RMO-per-scope. The property test in
// package experiments verifies this on generated corpora, and FuzzSimSound
// in package core fuzzes it.
package sim

import (
	"fmt"
	"math/rand"
	"slices"

	"github.com/weakgpu/gpulitmus/internal/chip"
	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/ptx"
)

// Result is the outcome of one simulated iteration of a litmus test.
type Result struct {
	State *litmus.MapState // final registers and memory
	Ticks int              // scheduler ticks consumed
}

// maxTicks bounds one iteration; litmus tests finish in tens of ticks, so
// hitting this indicates a deadlock bug.
const maxTicks = 100000

// Run simulates one iteration of the test on the given chip under the given
// incantations. The seed makes runs reproducible; distinct seeds give
// independent interleavings.
func Run(t *litmus.Test, p *chip.Profile, inc chip.Incant, seed int64) (*Result, error) {
	m, err := NewMachine(t, p, inc)
	if err != nil {
		return nil, err
	}
	if err := m.Run(seed); err != nil {
		return nil, err
	}
	return &Result{State: m.State(), Ticks: m.ticks}, nil
}

// effProbs are the chip probabilities scaled by the incantation response.
type effProbs struct {
	storeDelay       float64
	storeAtomicDelay float64
	wwCommit         float64
	loadDelay        float64
	loadRR           float64
	loadRW           float64
	coRR             float64
	staleL1          float64
	cgEvictFail      float64
	coRRMixed        float64
	shared           float64 // factor applied to load/store relaxations on shared memory
}

// Locations are indexed by their position in Test.Locations(); a register
// value's base is that index plus one, so the zero regv holds no address.

type commitEntry struct {
	loc    int
	val    int64
	thread int
	shared bool
}

// smState is one streaming multiprocessor: the L1 cache over global memory,
// the CTA's shared-memory storage, and the queue of CTA-visible stores not
// yet committed to L2. All three slices are indexed by location.
type smState struct {
	l1     []int64
	l1ok   []bool // l1[loc] holds a line
	shared []int64
	queue  []commitEntry
}

// pload is a split-transaction load: issued, then completed by a scheduler
// action that reads the memory system.
type pload struct {
	loc    int
	ca     bool // .ca (L1) load
	shared bool
	done   bool
	val    int64
}

type regv struct {
	v    int64
	base int   // location index + 1 when the register holds an address
	pend int32 // index + 1 into Machine.loads while the value awaits a load completion
	set  bool  // written or declared: the register is part of the final state
}

type sbEntry struct {
	loc    int
	val    int64
	shared bool
}

// thread is one thread's fixed layout: its decoded program and register
// slots.
type thread struct {
	cta      int
	prog     []op
	regNames []ptx.Reg       // slot -> name
	regSlot  map[ptx.Reg]int // name -> slot
	regInit  []regv          // declared registers, the rest zero
}

type tstate struct {
	id, cta int
	pc      int
	steps   int
	regs    []regv // by slot
	sb      []sbEntry
	pending []int32 // indices into Machine.loads, oldest first
	done    bool
	// mixed marks locations recently read with .cg whose delayed L1
	// eviction a subsequent .ca load can race with (Fig. 4).
	mixed []bool
}

// caLoad is a .ca load of a global location, resolved statically: the
// residual stale-line pass draws once for each, in program order.
type caLoad struct{ cta, loc int }

// Machine simulates one test on one chip under one incantation setting.
// NewMachine does the per-test work once; each Run resets the machine in
// place and simulates one iteration, so a harness worker running thousands
// of iterations allocates nothing per iteration. After Run, the machine is
// the final state of that iteration (it implements litmus.State). A Machine
// is not safe for concurrent use.
type Machine struct {
	test *litmus.Test
	prof *chip.Profile
	eff  effProbs
	src  *lazySource
	rng  *rand.Rand

	// Per-test layout.
	locs       []ptx.Sym // Test.Locations()
	locIdx     map[ptx.Sym]int
	isShared   []bool
	l2Init     []int64 // initial values of global locations, 0 elsewhere
	sharedInit []int64 // initial values of shared locations, 0 elsewhere
	owner      []int   // CTA whose shared copy the final state reports; -1 for none
	layout     []thread
	caLoads    []caLoad

	// Per-iteration state, reset by Run.
	l2      []int64
	sms     []smState
	threads []tstate
	loads   []pload
	acts    []action
	cands   []int
	ticks   int
}

// NewMachine validates the test and precomputes its layout for the chip
// and incantations.
func NewMachine(t *litmus.Test, p *chip.Profile, inc chip.Incant) (*Machine, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	src := newLazySource(0)
	m := &Machine{test: t, prof: p, src: src, rng: rand.New(src)}

	// The mechanism class follows the test's placement (Table 6 separates
	// intra-CTA from inter-CTA behaviour).
	class := chip.Inter
	if len(t.Scope.CTAs) == 1 {
		class = chip.Intra
	}
	mult := p.Multiplier(class, inc)
	staleMult := p.Multiplier(chip.Stale, inc)
	m.eff = effProbs{
		storeDelay:       p.PStoreDelay * mult,
		storeAtomicDelay: p.PStoreAtomicDelay * mult,
		wwCommit:         p.PWWCommit * mult,
		loadDelay:        p.PLoadDelay * mult,
		loadRR:           p.PLoadRR * mult,
		loadRW:           p.PLoadRW * mult,
		coRR:             p.PCoRR * mult,
		staleL1:          p.PStaleL1 * staleMult,
		cgEvictFail:      p.PCgEvictFail,
		coRRMixed:        p.PCoRRMixed * staleMult,
		shared:           p.SharedFactor,
	}

	m.locs = t.Locations()
	n := len(m.locs)
	m.locIdx = make(map[ptx.Sym]int, n)
	m.isShared = make([]bool, n)
	m.l2Init = make([]int64, n)
	m.sharedInit = make([]int64, n)
	m.owner = make([]int, n)
	for i, loc := range m.locs {
		m.locIdx[loc] = i
		m.owner[i] = -1
		if t.SpaceOf(loc) == litmus.Shared {
			m.isShared[i] = true
			m.sharedInit[i] = t.InitOf(loc)
		} else {
			m.l2Init[i] = t.InitOf(loc)
		}
	}
	// Shared locations: the final state reports the copy of the (unique)
	// CTA that accesses them.
	if slices.Contains(m.isShared, true) {
		for tid, th := range t.Threads {
			for loc := range th.Prog.Symbols() {
				if i := m.locIdx[loc]; m.isShared[i] && m.owner[i] < 0 {
					m.owner[i] = t.Scope.CTAOf(tid)
				}
			}
		}
	}

	for tid, th := range t.Threads {
		cta := t.Scope.CTAOf(tid)
		if cta < 0 {
			return nil, fmt.Errorf("sim: thread %d not in scope tree", tid)
		}
		m.layout = append(m.layout, m.decodeThread(tid, cta, th.Prog))
	}

	// Residual stale L1 lines from previous iterations of the enclosing
	// kernel (Sec. 4.2 runs tests thousands of times in one launch): a
	// location a thread will read with .ca may have a line holding the
	// initial value in that thread's SM even after the racing store hits
	// L2.
	if m.eff.staleL1 > 0 {
		for tid, th := range t.Threads {
			for _, inst := range th.Prog {
				ld, ok := inst.(ptx.Ld)
				if !ok || ld.CacheOp != ptx.CacheCA {
					continue
				}
				loc, err := t.ResolveAddr(tid, ld.Addr)
				if err != nil || t.SpaceOf(loc) != litmus.Global {
					continue
				}
				m.caLoads = append(m.caLoads, caLoad{cta: m.layout[tid].cta, loc: m.locIdx[loc]})
			}
		}
	}

	m.l2 = make([]int64, n)
	m.sms = make([]smState, len(t.Scope.CTAs))
	for i := range m.sms {
		m.sms[i] = smState{l1: make([]int64, n), l1ok: make([]bool, n), shared: make([]int64, n)}
	}
	m.threads = make([]tstate, len(m.layout))
	for tid, th := range m.layout {
		m.threads[tid] = tstate{id: tid, cta: th.cta, regs: make([]regv, len(th.regInit)), mixed: make([]bool, n)}
	}
	return m, nil
}

// reset puts the machine in the test's initial state.
func (m *Machine) reset() {
	copy(m.l2, m.l2Init)
	for i := range m.sms {
		sm := &m.sms[i]
		clear(sm.l1ok)
		copy(sm.shared, m.sharedInit)
		sm.queue = sm.queue[:0]
	}
	for i := range m.threads {
		t := &m.threads[i]
		t.pc, t.steps, t.done = 0, 0, false
		copy(t.regs, m.layout[i].regInit)
		t.sb = t.sb[:0]
		t.pending = t.pending[:0]
		clear(t.mixed)
	}
	m.loads = m.loads[:0]
	m.ticks = 0
}

// Run simulates one iteration from the test's initial state with the given
// seed. Its final state is the one sim.Run gives for that seed, whatever
// the machine simulated before.
func (m *Machine) Run(seed int64) error {
	m.src.Seed(seed)
	m.reset()
	if m.eff.staleL1 > 0 {
		for _, ld := range m.caLoads {
			sm := &m.sms[ld.cta]
			if !sm.l1ok[ld.loc] && m.rng.Float64() < m.eff.staleL1 {
				sm.l1[ld.loc] = m.l2Init[ld.loc]
				sm.l1ok[ld.loc] = true
			}
		}
	}
	for !m.allDone() {
		m.ticks++
		if m.ticks > maxTicks {
			return fmt.Errorf("sim: test %s exceeded %d ticks (deadlocked or unbounded loop)", m.test.Name, maxTicks)
		}
		m.enabled()
		if len(m.acts) == 0 {
			return fmt.Errorf("sim: test %s deadlocked at tick %d", m.test.Name, m.ticks)
		}
		m.do(m.pick())
	}
	m.flush()
	return nil
}

func (m *Machine) allDone() bool {
	for i := range m.threads {
		if !m.threads[i].done {
			return false
		}
	}
	return true
}

// action is one schedulable machine step: a thread (step, complete, drain)
// or an SM (commit).
type action struct {
	weight float64
	kind   actKind
	idx    int
}

type actKind uint8

const (
	actStep actKind = iota
	actComplete
	actDrain
	actCommit
)

// enabled fills m.acts with the steps the scheduler may take now.
func (m *Machine) enabled() {
	m.acts = m.acts[:0]
	for i := range m.threads {
		t := &m.threads[i]
		if !t.done && m.canStep(t) {
			m.acts = append(m.acts, action{weight: 10, kind: actStep, idx: i})
		}
		if len(t.pending) > 0 {
			m.acts = append(m.acts, action{weight: 5, kind: actComplete, idx: i})
		}
		if len(t.sb) > 0 {
			m.acts = append(m.acts, action{weight: 4, kind: actDrain, idx: i})
		}
	}
	for i := range m.sms {
		if len(m.sms[i].queue) > 0 {
			m.acts = append(m.acts, action{weight: 4, kind: actCommit, idx: i})
		}
	}
}

func (m *Machine) pick() action {
	total := 0.0
	for _, a := range m.acts {
		total += a.weight
	}
	r := m.rng.Float64() * total
	for _, a := range m.acts {
		r -= a.weight
		if r <= 0 {
			return a
		}
	}
	return m.acts[len(m.acts)-1]
}

func (m *Machine) do(a action) {
	switch a.kind {
	case actStep:
		m.step(&m.threads[a.idx])
	case actComplete:
		m.completeOne(&m.threads[a.idx])
	case actDrain:
		m.drainAt(&m.threads[a.idx], 0)
	case actCommit:
		m.commitOne(&m.sms[a.idx])
	}
}

// flush completes every outstanding operation after all threads retire so
// the final state is well defined.
func (m *Machine) flush() {
	for i := range m.threads {
		t := &m.threads[i]
		for len(t.pending) > 0 {
			m.completeAt(t, 0)
		}
		for len(t.sb) > 0 {
			m.drainAt(t, 0)
		}
	}
	for i := range m.sms {
		sm := &m.sms[i]
		for len(sm.queue) > 0 {
			m.commitAt(sm, 0)
		}
	}
}

// Reg reports thread tid's final register r after the last Run: absent
// when the register was never written or declared, or holds an address.
func (m *Machine) Reg(tid int, r ptx.Reg) (int64, bool) {
	if tid < 0 || tid >= len(m.threads) {
		return 0, false
	}
	slot, ok := m.layout[tid].regSlot[r]
	if !ok {
		return 0, false
	}
	return m.regFinal(m.threads[tid].regs[slot])
}

// Mem reports the final value of loc after the last Run: the L2 for global
// locations, the accessing CTA's copy for shared ones.
func (m *Machine) Mem(loc ptx.Sym) (int64, bool) {
	i, ok := m.locIdx[loc]
	if !ok {
		return 0, false
	}
	return m.memFinal(i)
}

func (m *Machine) regFinal(v regv) (int64, bool) {
	if !v.set || v.base != 0 {
		return 0, false
	}
	return m.regValue(v), true
}

func (m *Machine) memFinal(i int) (int64, bool) {
	if !m.isShared[i] {
		return m.l2[i], true
	}
	if m.owner[i] < 0 {
		return 0, false
	}
	return m.sms[m.owner[i]].shared[i], true
}

// State copies the final state of the last Run.
func (m *Machine) State() *litmus.MapState {
	fs := litmus.NewMapState()
	for tid := range m.threads {
		for slot, v := range m.threads[tid].regs {
			if val, ok := m.regFinal(v); ok {
				fs.SetReg(tid, m.layout[tid].regNames[slot], val)
			}
		}
	}
	for i, loc := range m.locs {
		if val, ok := m.memFinal(i); ok {
			fs.SetMem(loc, val)
		}
	}
	return fs
}

func (m *Machine) regValue(v regv) int64 {
	if v.pend != 0 && m.loads[v.pend-1].done {
		return m.loads[v.pend-1].val
	}
	return v.v
}

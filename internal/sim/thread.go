package sim

import (
	"github.com/weakgpu/gpulitmus/internal/ptx"
)

// maxSteps bounds one thread's dynamic instruction count (spin loops).
const maxSteps = 4096

// opcode is a decoded instruction kind.
type opcode uint8

const (
	opUnknown opcode = iota // never ready: the thread deadlocks
	opLabel
	opBra
	opMov // also cvt: both copy their source
	opAdd
	opAnd
	opXor
	opSetp
	opMembar
	opLd
	opSt
	opCAS
	opExch
	opAtomAdd
	opInc
)

type argKind uint8

const (
	argNone argKind = iota
	argImm
	argSym
	argReg
)

// arg is a decoded operand: an immediate, a location index or a register
// slot.
type arg struct {
	kind argKind
	imm  int64
	idx  int
}

// op is an instruction decoded against its test: registers are slots,
// symbols are location indices and branch targets are program counters.
type op struct {
	code  opcode
	guard int // register slot of the guard, -1 when unguarded
	neg   bool
	dst   int // destination register slot
	// args are the operands the instruction waits for, in instruction
	// order: the address first for memory accesses (ld [a]; st [a],src;
	// atom.cas [a],cmp,new; atom.exch/add/inc [a],src), the sources for
	// register instructions (mov/cvt src; add/and/xor/setp a,b).
	args  [3]arg
	nargs int
	ca    bool // .ca load
	scope ptx.Scope
	pc    int // branch target
}

// decodeThread assigns register slots in order of appearance and decodes
// the program.
func (m *Machine) decodeThread(tid, cta int, prog ptx.Program) thread {
	th := thread{cta: cta, regSlot: make(map[ptx.Reg]int)}
	slot := func(r ptx.Reg) int {
		s, ok := th.regSlot[r]
		if !ok {
			s = len(th.regNames)
			th.regSlot[r] = s
			th.regNames = append(th.regNames, r)
		}
		return s
	}
	operand := func(o ptx.Operand) arg {
		switch v := o.(type) {
		case ptx.Imm:
			return arg{kind: argImm, imm: int64(v)}
		case ptx.Sym:
			return arg{kind: argSym, idx: m.locIdx[v]}
		case ptx.Reg:
			return arg{kind: argReg, idx: slot(v)}
		}
		return arg{}
	}
	labels := prog.Labels()
	th.prog = make([]op, len(prog))
	for pc, inst := range prog {
		o := op{guard: -1}
		if g := inst.Pred(); g != nil {
			o.guard, o.neg = slot(g.Reg), g.Neg
		}
		args := func(ops ...ptx.Operand) {
			for i, a := range ops {
				o.args[i] = operand(a)
			}
			o.nargs = len(ops)
		}
		switch v := inst.(type) {
		case ptx.LabelDef:
			o.code = opLabel
		case ptx.Bra:
			o.code, o.pc = opBra, labels[v.Target]
		case ptx.Mov:
			o.code = opMov
			o.dst = slot(v.Dst)
			args(v.Src)
		case ptx.Cvt:
			o.code = opMov
			o.dst = slot(v.Dst)
			args(v.Src)
		case ptx.Add:
			o.code = opAdd
			o.dst = slot(v.Dst)
			args(v.A, v.B)
		case ptx.And:
			o.code = opAnd
			o.dst = slot(v.Dst)
			args(v.A, v.B)
		case ptx.Xor:
			o.code = opXor
			o.dst = slot(v.Dst)
			args(v.A, v.B)
		case ptx.SetpEq:
			o.code = opSetp
			o.dst = slot(v.P)
			args(v.A, v.B)
		case ptx.Membar:
			o.code, o.scope = opMembar, v.Scope
		case ptx.Ld:
			o.code, o.ca = opLd, v.CacheOp == ptx.CacheCA
			o.dst = slot(v.Dst)
			args(v.Addr)
		case ptx.St:
			o.code = opSt
			args(v.Addr, v.Src)
		case ptx.AtomCAS:
			o.code = opCAS
			o.dst = slot(v.Dst)
			args(v.Addr, v.Cmp, v.New)
		case ptx.AtomExch:
			o.code = opExch
			o.dst = slot(v.Dst)
			args(v.Addr, v.Src)
		case ptx.AtomAdd:
			o.code = opAtomAdd
			o.dst = slot(v.Dst)
			args(v.Addr, v.Src)
		case ptx.AtomInc:
			o.code = opInc
			o.dst = slot(v.Dst)
			args(v.Addr, v.Bound)
		}
		th.prog[pc] = o
	}
	// Declared registers start in the final state; an address register
	// starts holding its location. A later declaration wins.
	for _, d := range m.test.Decls {
		if d.Thread == tid {
			slot(d.Reg)
		}
	}
	th.regInit = make([]regv, len(th.regNames))
	for _, d := range m.test.Decls {
		if d.Thread != tid {
			continue
		}
		v := regv{set: true}
		if d.Loc != "" {
			v.base = m.locIdx[d.Loc] + 1
		}
		th.regInit[th.regSlot[d.Reg]] = v
	}
	return th
}

func (m *Machine) regReady(t *tstate, slot int) bool {
	p := t.regs[slot].pend
	return p == 0 || m.loads[p-1].done
}

// eval returns the concrete value of a ready operand.
func (m *Machine) eval(t *tstate, a arg) regv {
	switch a.kind {
	case argImm:
		return regv{v: a.imm}
	case argSym:
		return regv{base: a.idx + 1}
	case argReg:
		rv := t.regs[a.idx]
		if rv.pend != 0 && m.loads[rv.pend-1].done {
			return regv{v: m.loads[rv.pend-1].val, base: rv.base}
		}
		return rv
	}
	return regv{}
}

func (t *tstate) setReg(slot int, v regv) {
	v.set = true
	t.regs[slot] = v
}

// resolveAddr maps an address operand to a location index; ok is false
// when the operand does not hold a modelled address.
func (m *Machine) resolveAddr(t *tstate, a arg) (loc int, ok bool) {
	switch a.kind {
	case argSym:
		return a.idx, true
	case argReg:
		rv := m.eval(t, a)
		if rv.base == 0 || rv.v != 0 {
			return 0, false
		}
		return rv.base - 1, true
	}
	return 0, false
}

// canStep reports whether the thread's next instruction can execute now:
// its guard and operands are resolved and, for fences, the drain conditions
// hold.
func (m *Machine) canStep(t *tstate) bool {
	prog := m.layout[t.id].prog
	if t.pc >= len(prog) {
		return true // retirement
	}
	o := &prog[t.pc]
	if o.guard >= 0 && !m.regReady(t, o.guard) {
		return false
	}
	switch o.code {
	case opUnknown:
		return false
	case opMembar:
		return m.fenceReady(t, o.scope)
	}
	for _, a := range o.args[:o.nargs] {
		if a.kind == argReg && !m.regReady(t, a.idx) {
			return false
		}
	}
	return true
}

// fenceReady implements membar semantics: all scopes wait for the thread's
// outstanding loads to complete and its store buffer to drain (CTA
// visibility); membar.gl and membar.sys additionally wait for the thread's
// stores to commit from the SM queue to L2 (global visibility).
func (m *Machine) fenceReady(t *tstate, s ptx.Scope) bool {
	if len(t.pending) > 0 || len(t.sb) > 0 {
		return false
	}
	if s >= ptx.ScopeGL {
		for _, e := range m.sms[t.cta].queue {
			if e.thread == t.id {
				return false
			}
		}
	}
	return true
}

// step executes the thread's next instruction (canStep was true).
func (m *Machine) step(t *tstate) {
	prog := m.layout[t.id].prog
	if t.pc >= len(prog) {
		t.done = true
		return
	}
	t.steps++
	if t.steps > maxSteps {
		// Treat as livelock; surfaced by the tick bound in Run.
		t.done = true
		return
	}
	o := &prog[t.pc]

	if o.guard >= 0 {
		hold := m.eval(t, arg{kind: argReg, idx: o.guard}).v != 0
		if o.neg {
			hold = !hold
		}
		if !hold {
			t.pc++
			return
		}
	}

	switch o.code {
	case opLabel:
		t.pc++

	case opBra:
		t.pc = o.pc

	case opMov:
		t.setReg(o.dst, m.eval(t, o.args[0]))
		t.pc++

	case opAdd:
		a, b := m.eval(t, o.args[0]), m.eval(t, o.args[1])
		res := regv{v: a.v + b.v}
		if a.base != 0 {
			res.base = a.base
		} else if b.base != 0 {
			res.base = b.base
		}
		t.setReg(o.dst, res)
		t.pc++

	case opAnd:
		a, b := m.eval(t, o.args[0]), m.eval(t, o.args[1])
		t.setReg(o.dst, regv{v: a.v & b.v})
		t.pc++

	case opXor:
		a, b := m.eval(t, o.args[0]), m.eval(t, o.args[1])
		t.setReg(o.dst, regv{v: a.v ^ b.v})
		t.pc++

	case opSetp:
		a, b := m.eval(t, o.args[0]), m.eval(t, o.args[1])
		res := int64(0)
		if a.v == b.v && a.base == b.base {
			res = 1
		}
		t.setReg(o.dst, regv{v: res})
		t.pc++

	case opMembar:
		// fenceReady held: apply the fence's L1 effects.
		if o.scope >= m.prof.L1InvalidateScope {
			clear(m.sms[t.cta].l1ok)
		}
		if o.scope >= m.prof.MixedFlushScope {
			clear(t.mixed)
		}
		t.pc++

	case opLd:
		m.stepLoad(t, o)
		t.pc++

	case opSt:
		m.stepStore(t, o)
		t.pc++

	case opCAS, opExch, opAtomAdd, opInc:
		m.stepAtomic(t, o)
		t.pc++
	}
}

func (m *Machine) stepLoad(t *tstate, o *op) {
	loc, ok := m.resolveAddr(t, o.args[0])
	if !ok {
		t.done = true
		return
	}
	shared := m.isShared[loc]

	// Store-buffer forwarding: the thread always sees its own latest
	// buffered store (WR same-location order of SC-per-location).
	for i := len(t.sb) - 1; i >= 0; i-- {
		if t.sb[i].loc == loc {
			t.setReg(o.dst, regv{v: t.sb[i].val})
			return
		}
	}

	// Chips with ordered store→load paths (GCN 1.0) push their own
	// buffered stores to global visibility before reading, so sb never
	// arises from the buffer.
	if m.prof.StoreLoadOrdered {
		for len(t.sb) > 0 {
			m.drainAt(t, 0)
		}
		m.commitOwn(t)
	}

	// Delayed-eviction race (Fig. 4): a .ca load shortly after a .cg load
	// of the same location can still hit the line the .cg load was meant
	// to evict.
	if o.ca && !shared && t.mixed[loc] && m.rng.Float64() < m.eff.coRRMixed {
		t.setReg(o.dst, regv{v: m.l2Init[loc]})
		return
	}

	delay := m.eff.loadDelay
	if shared {
		delay *= m.eff.shared
	}
	// Completing at issue while older loads are pending is itself a
	// reordering, so it is gated like completion reordering: never past a
	// same-location load unless the coRR relaxation fires, and past
	// different-location loads only with the load-load probability.
	mustQueue := false
	for _, p := range t.pending {
		if m.loads[p].loc == loc {
			mustQueue = m.rng.Float64() >= m.eff.coRR
		} else if m.rng.Float64() >= m.eff.loadRR {
			mustQueue = true
		}
		if mustQueue {
			break
		}
	}
	if mustQueue || m.rng.Float64() < delay {
		m.loads = append(m.loads, pload{loc: loc, ca: o.ca, shared: shared})
		t.pending = append(t.pending, int32(len(m.loads)-1))
		t.setReg(o.dst, regv{pend: int32(len(m.loads))})
		return
	}
	t.setReg(o.dst, regv{v: m.readMem(t, loc, o.ca, shared)})
}

// readMem performs the memory-system read for a completing load.
func (m *Machine) readMem(t *tstate, loc int, ca, shared bool) int64 {
	sm := &m.sms[t.cta]
	// CTA-visible stores from the same SM win over L2/L1.
	for i := len(sm.queue) - 1; i >= 0; i-- {
		if sm.queue[i].loc == loc && sm.queue[i].shared == shared {
			return sm.queue[i].val
		}
	}
	if shared {
		return sm.shared[loc]
	}
	if ca {
		if sm.l1ok[loc] {
			return sm.l1[loc] // possibly stale: L1s are not coherent
		}
		val := m.l2[loc]
		sm.l1[loc], sm.l1ok[loc] = val, true
		return val
	}
	// .cg (and operator-less) loads read the L2 and evict the L1 line
	// (PTX manual, as quoted in Sec. 3.1.2); on some chips the eviction
	// is unreliable.
	val := m.l2[loc]
	if m.rng.Float64() >= m.eff.cgEvictFail {
		sm.l1ok[loc] = false
	}
	t.mixed[loc] = true
	return val
}

// completeSameLoc force-completes the thread's pending loads to loc, oldest
// first: a store (or RMW) must not overtake a program-order-earlier load of
// the same location (the RW leg of SC per location).
func (m *Machine) completeSameLoc(t *tstate, loc int) {
	for i := 0; i < len(t.pending); {
		if m.loads[t.pending[i]].loc == loc {
			m.completeAt(t, i)
			continue
		}
		i++
	}
}

// gateLoadRW enforces load-to-store program order unless the chip's
// load-buffering relaxation fires: a write may overtake older pending loads
// to other locations only with probability PLoadRW (the lb idiom; zero on
// GTX 540m, GTX 750 and GTX 280, matching their empty dlb-lb and sl-future
// rows).
func (m *Machine) gateLoadRW(t *tstate) {
	if len(t.pending) == 0 || m.rng.Float64() < m.eff.loadRW {
		return
	}
	for len(t.pending) > 0 {
		m.completeAt(t, 0)
	}
}

func (m *Machine) stepStore(t *tstate, o *op) {
	loc, ok := m.resolveAddr(t, o.args[0])
	if !ok {
		t.done = true
		return
	}
	m.completeSameLoc(t, loc)
	m.gateLoadRW(t)
	shared := m.isShared[loc]
	val := m.eval(t, o.args[1]).v

	delay := m.eff.storeDelay
	if shared {
		delay *= m.eff.shared
	}
	// A non-empty store buffer forces buffering to preserve same-thread
	// store order through the buffer.
	if len(t.sb) > 0 || m.rng.Float64() < delay {
		t.sb = append(t.sb, sbEntry{loc: loc, val: val, shared: shared})
		return
	}
	// Write-through: stage 1 then an in-order commit of the whole SM
	// queue, preserving FIFO visibility.
	sm := &m.sms[t.cta]
	sm.queue = append(sm.queue, commitEntry{loc: loc, val: val, thread: t.id, shared: shared})
	for len(sm.queue) > 0 {
		m.commitAt(sm, 0)
	}
}

// commitOwn commits the thread's entries in its SM queue to L2, oldest
// first.
func (m *Machine) commitOwn(t *tstate) {
	sm := &m.sms[t.cta]
	for i := 0; i < len(sm.queue); {
		if sm.queue[i].thread == t.id {
			m.commitAt(sm, i)
			continue
		}
		i++
	}
}

// stepAtomic performs an atomic RMW at the L2 (global locations) or the
// SM's shared memory. Atomics do not flush the thread's store buffer except
// for entries to the same location — the crux of the broken-lock tests of
// Sec. 3.2.
func (m *Machine) stepAtomic(t *tstate, o *op) {
	loc, ok := m.resolveAddr(t, o.args[0])
	if !ok {
		t.done = true
		return
	}
	m.completeSameLoc(t, loc)
	m.gateLoadRW(t)
	shared := m.isShared[loc]
	sm := &m.sms[t.cta]

	// Most chips' atomics flush the thread's buffered stores; with the
	// chip's store-atomic delay probability, older stores to other
	// locations stay buffered and the RMW overtakes them (the release
	// overtaking of cas-sl, Fig. 9).
	if m.rng.Float64() >= m.eff.storeAtomicDelay {
		for len(t.sb) > 0 {
			m.drainAt(t, 0)
		}
		m.commitOwn(t)
	}

	// Drain own same-location buffered stores (they must be ordered
	// before the RMW).
	rest := t.sb[:0]
	for _, e := range t.sb {
		if e.loc == loc {
			sm.queue = append(sm.queue, commitEntry{loc: e.loc, val: e.val, thread: t.id, shared: e.shared})
		} else {
			rest = append(rest, e)
		}
	}
	t.sb = rest

	// Linearise: commit every CTA-visible store to this location, from
	// all SMs, before the RMW reads.
	for s := range m.sms {
		other := &m.sms[s]
		for {
			idx := -1
			for i, e := range other.queue {
				if e.loc == loc {
					idx = i
					break
				}
			}
			if idx < 0 {
				break
			}
			m.commitAt(other, idx)
		}
	}

	old := m.l2[loc]
	if shared {
		old = sm.shared[loc]
	}
	next, write := old, false
	switch o.code {
	case opCAS:
		if old == m.eval(t, o.args[1]).v {
			next, write = m.eval(t, o.args[2]).v, true
		}
	case opExch:
		next, write = m.eval(t, o.args[1]).v, true
	case opAtomAdd:
		next, write = old+m.eval(t, o.args[1]).v, true
	case opInc:
		next, write = old+1, true
		if old >= m.eval(t, o.args[1]).v {
			next = 0
		}
	}
	if write {
		if shared {
			sm.shared[loc] = next
		} else {
			m.l2[loc] = next
			sm.l1ok[loc] = false // atomics read/write at L2, evicting the line
		}
	}
	t.setReg(o.dst, regv{v: old})
}

// completeOne completes a pending load chosen per the chip's reordering
// probabilities: normally the oldest; different-location younger loads may
// jump ahead (mp read side); same-location reordering is the coRR
// relaxation.
func (m *Machine) completeOne(t *tstate) {
	idx := 0
	if m.rng.Float64() < m.eff.coRR {
		idx = m.rng.Intn(len(t.pending))
	} else if m.rng.Float64() < m.eff.loadRR {
		m.cands = m.cands[:0]
		for i, p := range t.pending {
			ok := true
			for _, earlier := range t.pending[:i] {
				if m.loads[earlier].loc == m.loads[p].loc {
					ok = false
					break
				}
			}
			if ok {
				m.cands = append(m.cands, i)
			}
		}
		if len(m.cands) > 0 {
			idx = m.cands[m.rng.Intn(len(m.cands))]
		}
	}
	m.completeAt(t, idx)
}

func (m *Machine) completeAt(t *tstate, i int) {
	p := t.pending[i]
	val := m.readMem(t, m.loads[p].loc, m.loads[p].ca, m.loads[p].shared)
	m.loads[p].val, m.loads[p].done = val, true
	t.pending = append(t.pending[:i], t.pending[i+1:]...)
}

// drainAt moves the store buffer's i-th entry to the SM queue (stage 1:
// the store becomes visible to the CTA).
func (m *Machine) drainAt(t *tstate, i int) {
	e := t.sb[i]
	t.sb = append(t.sb[:i], t.sb[i+1:]...)
	sm := &m.sms[t.cta]
	if e.shared {
		sm.shared[e.loc] = e.val
		return
	}
	sm.queue = append(sm.queue, commitEntry{loc: e.loc, val: e.val, thread: t.id, shared: false})
}

// commitOne commits one SM-queue entry to the L2 (stage 2): normally the
// head; with the chip's write-write commit probability, a younger entry to
// a different location may commit first (visible inter-CTA even under
// membar.cta).
func (m *Machine) commitOne(sm *smState) {
	idx := 0
	if m.rng.Float64() < m.eff.wwCommit {
		m.cands = m.cands[:0]
		for i, e := range sm.queue {
			ok := true
			for _, earlier := range sm.queue[:i] {
				if earlier.loc == e.loc {
					ok = false
					break
				}
			}
			if ok {
				m.cands = append(m.cands, i)
			}
		}
		if len(m.cands) > 0 {
			idx = m.cands[m.rng.Intn(len(m.cands))]
		}
	}
	m.commitAt(sm, idx)
}

func (m *Machine) commitAt(sm *smState, i int) {
	e := sm.queue[i]
	sm.queue = append(sm.queue[:i], sm.queue[i+1:]...)
	if e.shared {
		sm.shared[e.loc] = e.val
		return
	}
	m.l2[e.loc] = e.val
	// Write-evict: the writing SM's own L1 line is evicted, so its threads
	// observe their own committed stores; other SMs' lines go stale.
	sm.l1ok[e.loc] = false
}

// Package cuda models the CUDA-level snippets the paper studies (Figs. 2,
// 6 and 10) and their translation to PTX via the Table 5 mapping, which the
// paper discovered by examining code generated by the CUDA 5.5 compiler
// with -Xptxas -dlcm=cg -Xptxas -dscm=cg.
//
// A snippet is a small statement list; Translate lowers it to a PTX
// program, with CUDA control flow becoming jumps and predicated
// instructions. The Distil* functions reproduce the paper's distillation of
// each snippet into the litmus tests of Figs. 7, 9 and 11.
package cuda

import (
	"fmt"

	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/ptx"
)

// Stmt is one CUDA statement of the modelled subset.
type Stmt interface{ stmt() }

// AtomicCAS is "dst = atomicCAS(addr, cmp, new)".
type AtomicCAS struct {
	Dst, Addr string
	Cmp, New  int64
}

// AtomicExch is "dst = atomicExch(addr, val)".
type AtomicExch struct {
	Dst, Addr string
	Val       int64
}

// AtomicAdd is "atomicAdd(addr, 1)" (the increment form of Table 5).
type AtomicAdd struct {
	Dst, Addr string
}

// Threadfence is "__threadfence()".
type Threadfence struct{}

// ThreadfenceBlock is "__threadfence_block()".
type ThreadfenceBlock struct{}

// Store is "*addr = val" ("volatile" when the location is declared
// volatile).
type Store struct {
	Addr     string
	Val      int64
	FromReg  string // store from a register instead of an immediate
	Volatile bool
}

// Load is "dst = *addr".
type Load struct {
	Dst, Addr string
	Volatile  bool
}

// AddOne is "dst = src + 1" (the tail++ of Fig. 6).
type AddOne struct {
	Dst, Src string
}

// IfZero guards Then on "reg == 0" (the lock-acquired test of Figs. 2 and
// 10); translated to setp.eq plus predication.
type IfZero struct {
	Reg  string
	Then []Stmt
}

// WhileCASSpin is "while(atomicCAS(addr,0,1) != 0);" — the spin of Fig. 2;
// translated to a CAS / setp / predicated backward branch loop.
type WhileCASSpin struct {
	Dst, Addr string
}

func (AtomicCAS) stmt()        {}
func (AtomicExch) stmt()       {}
func (AtomicAdd) stmt()        {}
func (Threadfence) stmt()      {}
func (ThreadfenceBlock) stmt() {}
func (Store) stmt()            {}
func (Load) stmt()             {}
func (AddOne) stmt()           {}
func (IfZero) stmt()           {}
func (WhileCASSpin) stmt()     {}

// Mapping documents Table 5 (CUDA construct → PTX instruction).
var Mapping = map[string]string{
	"atomicCAS":            "atom.cas",
	"atomicExch":           "atom.exch",
	"__threadfence":        "membar.gl",
	"__threadfence_block":  "membar.cta",
	"atomicAdd(...,1)":     "atom.inc",
	"store to global int":  "st.cg",
	"load from global int": "ld.cg",
	"store to volatile":    "st.volatile",
	"load from volatile":   "ld.volatile",
	"control flow":         "jumps & predicated instructions",
}

// translator lowers statements for one thread.
type translator struct {
	prog   ptx.Program
	labels int
	preds  int
}

// Translate lowers a snippet to PTX per Table 5.
func Translate(stmts []Stmt) (ptx.Program, error) {
	tr := &translator{}
	if err := tr.block(stmts, nil); err != nil {
		return nil, err
	}
	if err := tr.prog.Validate(); err != nil {
		return nil, err
	}
	return tr.prog, nil
}

// MustTranslate panics on error; for the static snippet library.
func MustTranslate(stmts []Stmt) ptx.Program {
	p, err := Translate(stmts)
	if err != nil {
		panic(err)
	}
	return p
}

func (tr *translator) newPred() ptx.Reg {
	tr.preds++
	return ptx.Reg(fmt.Sprintf("p%d", tr.preds))
}

func (tr *translator) newLabel() string {
	tr.labels++
	return fmt.Sprintf("L%d", tr.labels)
}

func (tr *translator) block(stmts []Stmt, guard *ptx.Guard) error {
	for _, s := range stmts {
		if err := tr.stmt(s, guard); err != nil {
			return err
		}
	}
	return nil
}

func (tr *translator) push(i ptx.Instr, guard *ptx.Guard) {
	if guard != nil {
		i = i.WithGuard(guard)
	}
	tr.prog = append(tr.prog, i)
}

func (tr *translator) stmt(s Stmt, guard *ptx.Guard) error {
	switch v := s.(type) {
	case AtomicCAS:
		tr.push(ptx.AtomCAS{Dst: ptx.Reg(v.Dst), Addr: ptx.Sym(v.Addr), Cmp: ptx.Imm(v.Cmp), New: ptx.Imm(v.New)}, guard)
	case AtomicExch:
		tr.push(ptx.AtomExch{Dst: ptx.Reg(v.Dst), Addr: ptx.Sym(v.Addr), Src: ptx.Imm(v.Val)}, guard)
	case AtomicAdd:
		tr.push(ptx.AtomInc{Dst: ptx.Reg(v.Dst), Addr: ptx.Sym(v.Addr), Bound: ptx.Imm(0x7fffffff)}, guard)
	case Threadfence:
		tr.push(ptx.Membar{Scope: ptx.ScopeGL}, guard)
	case ThreadfenceBlock:
		tr.push(ptx.Membar{Scope: ptx.ScopeCTA}, guard)
	case Store:
		var src ptx.Operand = ptx.Imm(v.Val)
		if v.FromReg != "" {
			src = ptx.Reg(v.FromReg)
		}
		if v.Volatile {
			tr.push(ptx.St{Addr: ptx.Sym(v.Addr), Src: src, Volatile: true}, guard)
		} else {
			tr.push(ptx.St{Addr: ptx.Sym(v.Addr), Src: src, CacheOp: ptx.CacheCG}, guard)
		}
	case Load:
		if v.Volatile {
			tr.push(ptx.Ld{Dst: ptx.Reg(v.Dst), Addr: ptx.Sym(v.Addr), Volatile: true}, guard)
		} else {
			tr.push(ptx.Ld{Dst: ptx.Reg(v.Dst), Addr: ptx.Sym(v.Addr), CacheOp: ptx.CacheCG}, guard)
		}
	case AddOne:
		tr.push(ptx.Add{Dst: ptx.Reg(v.Dst), A: ptx.Reg(v.Src), B: ptx.Imm(1)}, guard)
	case IfZero:
		if guard != nil {
			return fmt.Errorf("cuda: nested guards are not supported")
		}
		p := tr.newPred()
		tr.push(ptx.SetpEq{P: p, A: ptx.Reg(v.Reg), B: ptx.Imm(0)}, nil)
		return tr.block(v.Then, &ptx.Guard{Reg: p})
	case WhileCASSpin:
		if guard != nil {
			return fmt.Errorf("cuda: guarded spin loops are not supported")
		}
		top := tr.newLabel()
		p := tr.newPred()
		tr.push(ptx.LabelDef{Name: top}, nil)
		tr.push(ptx.AtomCAS{Dst: ptx.Reg(v.Dst), Addr: ptx.Sym(v.Addr), Cmp: ptx.Imm(0), New: ptx.Imm(1)}, nil)
		tr.push(ptx.SetpEq{P: p, A: ptx.Reg(v.Dst), B: ptx.Imm(0)}, nil)
		tr.push(ptx.Bra{Target: top}.WithGuard(&ptx.Guard{Reg: p, Neg: true}), nil)
	default:
		return fmt.Errorf("cuda: unknown statement %T", s)
	}
	return nil
}

// Fig2Lock is the lock() of CUDA by Example (Fig. 2): spin on
// atomicCAS(mutex,0,1); the erratum adds __threadfence() after acquisition.
func Fig2Lock(fenced bool) []Stmt {
	s := []Stmt{WhileCASSpin{Dst: "r0", Addr: "mutex"}}
	if fenced {
		s = append(s, Threadfence{})
	}
	return s
}

// Fig2Unlock is the unlock() of Fig. 2: atomicExch(mutex,0), with the
// erratum's __threadfence() before it.
func Fig2Unlock(fenced bool) []Stmt {
	var s []Stmt
	if fenced {
		s = append(s, Threadfence{})
	}
	return append(s, AtomicExch{Dst: "r9", Addr: "mutex", Val: 0})
}

// Fig6Push is the deque push of Fig. 6: write the task, (optionally fence,)
// increment tail.
func Fig6Push(fenced bool) []Stmt {
	s := []Stmt{Store{Addr: "task0", Val: 1}}
	if fenced {
		s = append(s, Threadfence{})
	}
	return append(s,
		Load{Dst: "r2", Addr: "tail", Volatile: true},
		AddOne{Dst: "r3", Src: "r2"},
		Store{Addr: "tail", FromReg: "r3", Volatile: true},
	)
}

// Fig10Lock is the He–Yu spin lock of Fig. 10 with its critical-section
// read, in original (broken) or repaired form.
func Fig10Lock(fixed bool) (criticalRead []Stmt, release []Stmt) {
	criticalRead = []Stmt{Load{Dst: "r0", Addr: "x"}}
	if fixed {
		release = []Stmt{Threadfence{}, AtomicExch{Dst: "r1", Addr: "lockAddr", Val: 0}}
	} else {
		release = []Stmt{Store{Addr: "lockAddr", Val: 0}, Threadfence{}}
	}
	return criticalRead, release
}

// DistilCasSL distils Fig. 2 into the cas-sl litmus test of Fig. 9 and
// cross-checks it against the litmus library version.
func DistilCasSL(fenced bool) (*litmus.Test, error) {
	// T0: critical-section store, then unlock.
	t0 := []Stmt{Store{Addr: "x", Val: 1}}
	t0 = append(t0, Fig2Unlock(fenced)...)
	// T1: single CAS acquisition attempt (the spin distils to one try),
	// then the guarded critical-section load.
	prog0, err := Translate(t0)
	if err != nil {
		return nil, err
	}
	var prog1 ptx.Program
	prog1 = append(prog1, ptx.AtomCAS{Dst: "r1", Addr: ptx.Sym("mutex"), Cmp: ptx.Imm(0), New: ptx.Imm(1)})
	prog1 = append(prog1, ptx.SetpEq{P: "p", A: ptx.Reg("r1"), B: ptx.Imm(0)})
	if fenced {
		prog1 = append(prog1, ptx.Membar{Scope: ptx.ScopeGL}.WithGuard(&ptx.Guard{Reg: "p"}))
	}
	prog1 = append(prog1, ptx.Ld{Dst: "r3", Addr: ptx.Sym("x"), CacheOp: ptx.CacheCG}.WithGuard(&ptx.Guard{Reg: "p"}))

	return litmus.NewTest(distilName("cas-sl", fenced)).
		Global("x", 0).Global("mutex", 1).
		ThreadProg(prog0).
		ThreadProg(prog1).
		InterCTA().
		Exists("1:r1=0 /\\ 1:r3=0").
		Build()
}

// DistilSlFuture distils Fig. 10 into the sl-future test of Fig. 11.
func DistilSlFuture(fixed bool) (*litmus.Test, error) {
	read, release := Fig10Lock(fixed)
	t0 := append(append([]Stmt{}, read...), release...)
	prog0, err := Translate(t0)
	if err != nil {
		return nil, err
	}
	var prog1 ptx.Program
	prog1 = append(prog1, ptx.AtomCAS{Dst: "r2", Addr: ptx.Sym("lockAddr"), Cmp: ptx.Imm(0), New: ptx.Imm(1)})
	prog1 = append(prog1, ptx.SetpEq{P: "p", A: ptx.Reg("r2"), B: ptx.Imm(0)})
	if fixed {
		prog1 = append(prog1, ptx.Membar{Scope: ptx.ScopeGL}.WithGuard(&ptx.Guard{Reg: "p"}))
	}
	prog1 = append(prog1, ptx.St{Addr: ptx.Sym("x"), Src: ptx.Imm(1), CacheOp: ptx.CacheCG}.WithGuard(&ptx.Guard{Reg: "p"}))

	return litmus.NewTest(distilName("sl-future", fixed)).
		Global("x", 0).Global("lockAddr", 1).
		ThreadProg(prog0).
		ThreadProg(prog1).
		InterCTA().
		Exists("0:r0=1 /\\ 1:r2=0").
		Build()
}

// DistilDlbMP distils Fig. 6's push/steal pair into the dlb-mp test of
// Fig. 7.
func DistilDlbMP(fenced bool) (*litmus.Test, error) {
	prog0, err := Translate(Fig6Push(fenced))
	if err != nil {
		return nil, err
	}
	var prog1 ptx.Program
	prog1 = append(prog1, ptx.Ld{Dst: "r0", Addr: ptx.Sym("tail"), Volatile: true})
	prog1 = append(prog1, ptx.SetpEq{P: "p4", A: ptx.Reg("r0"), B: ptx.Imm(0)})
	if fenced {
		prog1 = append(prog1, ptx.Membar{Scope: ptx.ScopeGL}.WithGuard(&ptx.Guard{Reg: "p4", Neg: true}))
	}
	prog1 = append(prog1, ptx.Ld{Dst: "r1", Addr: ptx.Sym("task0"), CacheOp: ptx.CacheCG}.WithGuard(&ptx.Guard{Reg: "p4", Neg: true}))

	return litmus.NewTest(distilName("dlb-mp", fenced)).
		Global("task0", 0).Global("tail", 0).
		ThreadProg(prog0).
		ThreadProg(prog1).
		InterCTA().
		Exists("1:r0=1 /\\ 1:r1=0").
		Build()
}

func distilName(base string, fenced bool) string {
	if fenced {
		return base + "+fences(distilled)"
	}
	return base + "(distilled)"
}

package vm

// The dense reference interpreter: the oracle the compiled executor is
// differentially tested against (FuzzCompiledVsInterp,
// TestInterpAgreesOnWorkloads and the compiled/dense test matrix). It
// lives in a test file, so no production path can reach it; Interp
// (export_test.go) swaps it in as a binding's executor.
//
// It takes every transition through compile.Stepper.Step, the one
// definition of what a transition does to the profiles, but keeps its
// own instruction loop, charging and IR arithmetic (safeDiv, safeMod,
// wrap), so a slip in the compiled copies shows as a divergence.
//
// Frames and their register/path slices are pooled across calls, and
// per-transition state is a slice index away, so a steady-state
// transition allocates nothing (TestSteadyStateTransitionAllocs).

import (
	"fmt"
	"io"
	"math"

	"pathprof/internal/ir"
	"pathprof/internal/vm/compile"
)

// funcRT is one routine's binding-level state: the IR joined with this
// worker's profile containers, telemetry cells and path hook through
// the shared transition step.
type funcRT struct {
	fn *ir.Func
	compile.Stepper
}

type frame struct {
	rt      *funcRT
	regs    []int64
	block   int
	pc      int
	callDst int // caller register receiving the return value
	compile.Track
}

// machine is one worker's interpreter. The engine's successor specs,
// pooled frames and containers are reused across the worker's
// replicas; Reset restores program state between them.
type machine struct {
	prog     *ir.Program
	costs    *CostModel
	out      io.Writer
	maxSteps int64
	globals  []int64
	arrays   [][]int64
	rts      []*funcRT
	pool     []*frame // recycled frames; regs/path capacity is retained

	steps, base, instrCost, dynCalls int64
}

// newInterp binds the engine to one worker's containers as an
// interpreter, the counterpart of compile.NewExec.
func newInterp(e *Engine, conf compile.Config) (executor, error) {
	m := &machine{prog: e.prog, costs: &e.opts.Costs, out: conf.Out, maxSteps: conf.MaxSteps}
	m.globals = make([]int64, len(e.prog.GlobalInit))
	m.arrays = make([][]int64, len(e.prog.Arrays))
	for i, a := range e.prog.Arrays {
		m.arrays[i] = make([]int64, a.Size)
	}
	m.rts = make([]*funcRT, len(e.routines))
	for i, rt := range e.routines {
		m.rts[i] = &funcRT{fn: rt.fn, Stepper: compile.Stepper{
			Name: rt.fn.Name, Spec: &rt.spec, Run: conf.Fts[i],
			Costs: &e.opts.Costs, Tel: conf.Tel, Hook: conf.PathHook,
		}}
	}
	return m, nil
}

// Reset restores program state and zeroes the run accounting.
func (m *machine) Reset() {
	copy(m.globals, m.prog.GlobalInit)
	for _, a := range m.arrays {
		for i := range a {
			a[i] = 0
		}
	}
	m.steps, m.base, m.instrCost, m.dynCalls = 0, 0, 0, 0
}

// Counters returns the accounting of the last Run.
func (m *machine) Counters() compile.Counters {
	return compile.Counters{Steps: m.steps, BaseCost: m.base, InstrCost: m.instrCost, DynCalls: m.dynCalls}
}

// newFrame pushes a pooled frame for function fi. Register and path
// slices are recycled across calls; registers are zeroed.
func (m *machine) newFrame(fi, callDst int) *frame {
	f := m.prog.Funcs[fi]
	var fr *frame
	if n := len(m.pool); n > 0 {
		fr = m.pool[n-1]
		m.pool = m.pool[:n-1]
	} else {
		fr = &frame{}
	}
	fr.rt = m.rts[fi]
	fr.block = f.Entry
	fr.pc = 0
	fr.callDst = callDst
	if cap(fr.regs) < f.NRegs {
		fr.regs = make([]int64, f.NRegs)
	} else {
		fr.regs = fr.regs[:f.NRegs]
		for i := range fr.regs {
			fr.regs[i] = 0
		}
	}
	fr.Track = compile.Track{Path: fr.Path[:0]}
	if fr.rt.Run.Edges != nil {
		fr.rt.Run.Edges.BumpCalls()
	}
	return fr
}

// free returns a popped frame to the pool.
func (m *machine) free(fr *frame) {
	fr.rt = nil
	m.pool = append(m.pool, fr)
}

// Run executes function fnIdx with the given arguments to completion.
func (m *machine) Run(fnIdx int, args []int64) (int64, error) {
	costs := m.costs
	cInstr, cTerm, cCall, cTaken := costs.Instr, costs.Term, costs.Call, costs.TakenPenalty
	maxSteps := m.maxSteps
	var steps, base int64 // flushed to m on successful completion

	entry := m.prog.Funcs[fnIdx]
	if len(args) != entry.NParams {
		return 0, fmt.Errorf("vm: %s expects %d args, got %d", entry.Name, entry.NParams, len(args))
	}
	var stack []*frame
	fr := m.newFrame(fnIdx, -1)
	copy(fr.regs, args)
	stack = append(stack, fr)

	var retVal int64
	for len(stack) > 0 {
		fr := stack[len(stack)-1]
		rt := fr.rt
		b := rt.fn.Blocks[fr.block]
		instrs := b.Instrs

		// Execute remaining instructions of the current block.
		callMade := false
		for fr.pc < len(instrs) {
			in := &instrs[fr.pc]
			fr.pc++
			steps++
			base += cInstr
			if steps > maxSteps {
				return 0, compile.ErrMaxSteps
			}
			if in.Op == ir.Call {
				m.dynCalls++
				base += cCall
				callee := m.prog.Funcs[in.Sym]
				if len(in.Args) != callee.NParams {
					return 0, fmt.Errorf("vm: %s expects %d args, got %d",
						callee.Name, callee.NParams, len(in.Args))
				}
				nf := m.newFrame(in.Sym, in.Dst)
				for i, a := range in.Args {
					nf.regs[i] = fr.regs[a]
				}
				stack = append(stack, nf)
				callMade = true
				break
			}
			r := fr.regs
			switch in.Op {
			case ir.Const:
				r[in.Dst] = in.Imm
			case ir.Mov:
				r[in.Dst] = r[in.A]
			case ir.Add:
				r[in.Dst] = r[in.A] + r[in.B]
			case ir.Sub:
				r[in.Dst] = r[in.A] - r[in.B]
			case ir.Mul:
				r[in.Dst] = r[in.A] * r[in.B]
			case ir.Div:
				r[in.Dst] = safeDiv(r[in.A], r[in.B])
			case ir.Mod:
				r[in.Dst] = safeMod(r[in.A], r[in.B])
			case ir.Neg:
				r[in.Dst] = -r[in.A]
			case ir.Not:
				r[in.Dst] = b2i(r[in.A] == 0)
			case ir.Eq:
				r[in.Dst] = b2i(r[in.A] == r[in.B])
			case ir.Ne:
				r[in.Dst] = b2i(r[in.A] != r[in.B])
			case ir.Lt:
				r[in.Dst] = b2i(r[in.A] < r[in.B])
			case ir.Le:
				r[in.Dst] = b2i(r[in.A] <= r[in.B])
			case ir.Gt:
				r[in.Dst] = b2i(r[in.A] > r[in.B])
			case ir.Ge:
				r[in.Dst] = b2i(r[in.A] >= r[in.B])
			case ir.BAnd:
				r[in.Dst] = r[in.A] & r[in.B]
			case ir.BOr:
				r[in.Dst] = r[in.A] | r[in.B]
			case ir.BXor:
				r[in.Dst] = r[in.A] ^ r[in.B]
			case ir.Shl:
				r[in.Dst] = r[in.A] << uint(r[in.B]&63)
			case ir.Shr:
				r[in.Dst] = r[in.A] >> uint(r[in.B]&63)
			case ir.LoadG:
				r[in.Dst] = m.globals[in.Sym]
			case ir.StoreG:
				m.globals[in.Sym] = r[in.A]
			case ir.LoadA:
				arr := m.arrays[in.Sym]
				if len(arr) == 0 {
					r[in.Dst] = 0
				} else {
					r[in.Dst] = arr[wrap(r[in.A], int64(len(arr)))]
				}
			case ir.StoreA:
				arr := m.arrays[in.Sym]
				if len(arr) > 0 {
					arr[wrap(r[in.A], int64(len(arr)))] = r[in.B]
				}
			case ir.Print:
				if m.out != nil {
					fmt.Fprintf(m.out, "%d\n", r[in.A])
				}
			}
		}
		if callMade {
			continue
		}

		// Terminator.
		steps++
		base += cTerm
		t := &b.Term
		switch t.Kind {
		case ir.Ret:
			rt.EndPath(&fr.Track)
			if t.Ret >= 0 {
				retVal = fr.regs[t.Ret]
			} else {
				retVal = 0
			}
			stack = stack[:len(stack)-1]
			if len(stack) > 0 {
				caller := stack[len(stack)-1]
				if fr.callDst >= 0 {
					caller.regs[fr.callDst] = retVal
				}
			}
			m.free(fr)
		case ir.Jump, ir.Branch:
			arm := 0
			if t.Kind == ir.Branch && fr.regs[t.Cond] == 0 {
				arm = 1 // else arm
			}
			s := &rt.Spec.Succs[fr.block][arm]
			if s.To != fr.block+1 {
				base += cTaken
			}
			m.instrCost += rt.Step(s, &fr.Track)
			fr.block, fr.pc = s.To, 0
		}
	}
	m.steps = steps
	m.base = base
	return retVal, nil
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// safeDiv defines x/0 = 0 and MinInt64/-1 = MinInt64 so arithmetic is
// total (the language has no traps).
func safeDiv(a, b int64) int64 {
	if b == 0 {
		return 0
	}
	if a == math.MinInt64 && b == -1 {
		return math.MinInt64
	}
	return a / b
}

func safeMod(a, b int64) int64 {
	if b == 0 {
		return 0
	}
	if a == math.MinInt64 && b == -1 {
		return 0
	}
	return a % b
}

// wrap maps an arbitrary index into [0, size): array indices wrap
// modulo the array size by definition. In-range indices (the common
// case) skip the division; size 0 yields 0 so empty arrays are total
// too (callers must still skip the element access).
func wrap(i, size int64) int64 {
	if uint64(i) < uint64(size) {
		return i
	}
	if size == 0 {
		return 0
	}
	i %= size
	if i < 0 {
		i += size
	}
	return i
}

package vm_test

import (
	"fmt"
	"testing"

	"pathprof/internal/ir"
	"pathprof/internal/vm"
	vmcompile "pathprof/internal/vm/compile"
)

// Registers of the pattern programs. The exit block prints the
// operands, the fillers and every global and array cell; a temp is
// read after the run only when its pattern says so, so a fused
// constant's store stays dead unless the pattern makes it live.
const (
	pA, pB, pC, pD = 0, 1, 2, 3 // operands
	pT, pU, pV     = 4, 5, 6    // temps
	pCond          = 7          // the branch condition
	pF0, pF1       = 8, 9       // fillers
	pCtr, pOne     = 10, 11     // the loop counter and the latch's 1
	pScratch       = 12         // the exit block's scratch
	pRegs          = 13
)

// pattern is one peephole shape: a call-free run, whether its block
// ends in a branch on pCond (else a jump), and the registers read
// again after it.
type pattern struct {
	name   string
	instrs []ir.Instr
	branch bool
	later  []int
}

var patternBinops = []ir.Opcode{
	ir.Add, ir.Sub, ir.Mul, ir.Div, ir.Mod, ir.Eq, ir.Ne, ir.Lt, ir.Le,
	ir.Gt, ir.Ge, ir.BAnd, ir.BOr, ir.BXor, ir.Shl, ir.Shr,
}

var patternCmps = []ir.Opcode{ir.Eq, ir.Ne, ir.Lt, ir.Le, ir.Gt, ir.Ge}

func konst(r int, k int64) ir.Instr { return ir.Instr{Op: ir.Const, Dst: r, Imm: k} }

func bin(op ir.Opcode, d, a, b int) ir.Instr { return ir.Instr{Op: op, Dst: d, A: a, B: b} }

// peepholePatterns lists every opcode alone and each shape the
// lowering fuses, next to the near misses that must not fuse.
func peepholePatterns() []pattern {
	var ps []pattern
	add := func(name string, branch bool, later []int, in ...ir.Instr) {
		ps = append(ps, pattern{name: name, instrs: in, branch: branch, later: later})
	}

	// Every opcode alone, Call aside: a call ends the run.
	add("const", false, nil, konst(pA, 41))
	add("mov", false, nil, ir.Instr{Op: ir.Mov, Dst: pA, A: pB})
	add("neg", false, nil, ir.Instr{Op: ir.Neg, Dst: pA, A: pB})
	add("not", false, nil, ir.Instr{Op: ir.Not, Dst: pA, A: pB})
	add("loadg", false, nil, ir.Instr{Op: ir.LoadG, Dst: pA, Sym: 1})
	add("storeg", false, nil, ir.Instr{Op: ir.StoreG, A: pB, Sym: 0})
	add("loada", false, nil, ir.Instr{Op: ir.LoadA, Dst: pA, A: pB, Sym: 0})
	add("storea", false, nil, ir.Instr{Op: ir.StoreA, A: pB, B: pC, Sym: 0})
	add("print", false, nil, ir.Instr{Op: ir.Print, A: pB})
	add("unknown", false, nil, bin(ir.Opcode(99), pA, pB, pC))
	for _, op := range patternBinops {
		add(op.String(), false, nil, bin(op, pA, pB, pC))
	}

	// A Const feeding B, A and both, and one whose register is read
	// again later.
	for _, op := range patternBinops {
		for _, k := range []int64{7, 1, 0, -3} {
			add(fmt.Sprintf("const %d feeds B of %v", k, op), false, nil, konst(pT, k), bin(op, pA, pB, pT))
		}
		add(fmt.Sprintf("const feeds B of %v into itself", op), false, nil, konst(pT, 3), bin(op, pT, pB, pT))
		add(fmt.Sprintf("const feeds A of %v", op), false, nil, konst(pT, 6), bin(op, pA, pT, pC))
		add(fmt.Sprintf("const feeds both of %v", op), false, nil, konst(pT, 6), bin(op, pA, pT, pT))
		add(fmt.Sprintf("const feeds B of %v, read later", op), false, []int{pT}, konst(pT, 5), bin(op, pA, pB, pT))
	}
	// Power-of-two divisors lower to a shift and a mask: a negative and
	// a positive dividend.
	for _, op := range []ir.Opcode{ir.Div, ir.Mod} {
		for _, k := range []int64{2, 4, 64, 1 << 62} {
			add(fmt.Sprintf("const %d feeds B of %v", k, op), false, nil, konst(pT, k), bin(op, pA, pB, pT))
			add(fmt.Sprintf("const %d feeds B of %v, positive dividend", k, op), false, nil, konst(pT, k), bin(op, pA, pC, pT))
		}
	}
	for _, k := range []int64{9, 0} {
		add(fmt.Sprintf("const %d feeds mov", k), false, nil, konst(pT, k), ir.Instr{Op: ir.Mov, Dst: pA, A: pT})
		add(fmt.Sprintf("const %d feeds storeg", k), false, nil, konst(pT, k), ir.Instr{Op: ir.StoreG, A: pT, Sym: 2})
		add(fmt.Sprintf("const %d feeds storea value", k), false, nil, konst(pT, k), ir.Instr{Op: ir.StoreA, A: pB, B: pT, Sym: 0})
		add(fmt.Sprintf("const %d feeds storea index", k), false, nil, konst(pT, k), ir.Instr{Op: ir.StoreA, A: pT, B: pC, Sym: 0})
		add(fmt.Sprintf("const %d feeds storea both", k), false, nil, konst(pT, k), ir.Instr{Op: ir.StoreA, A: pT, B: pT, Sym: 0})
		add(fmt.Sprintf("const %d feeds print", k), false, nil, konst(pT, k), ir.Instr{Op: ir.Print, A: pT})
	}
	add("const feeds mov, read later", false, []int{pT}, konst(pT, 4), ir.Instr{Op: ir.Mov, Dst: pA, A: pT})
	add("const feeds storeg, read later", false, []int{pT}, konst(pT, 4), ir.Instr{Op: ir.StoreG, A: pT, Sym: 2})
	add("const feeds storea, read later", false, []int{pT}, konst(pT, 4), ir.Instr{Op: ir.StoreA, A: pB, B: pT, Sym: 0})
	add("const read again in the run", false, nil, konst(pT, 4), bin(ir.Add, pA, pB, pT), bin(ir.Sub, pC, pT, pD))

	// Global read-modify-write, constant and register forms, with and
	// without another reader of each register, and near misses.
	for _, op := range []ir.Opcode{ir.Add, ir.Sub, ir.Mul, ir.BAnd, ir.BOr, ir.BXor, ir.Div, ir.Shl} {
		rmwK := []ir.Instr{
			{Op: ir.LoadG, Dst: pT, Sym: 0}, konst(pU, 3), bin(op, pV, pT, pU), {Op: ir.StoreG, A: pV, Sym: 0},
		}
		add(fmt.Sprintf("g %v= k", op), false, nil, rmwK...)
		for _, r := range []int{pT, pU, pV} {
			add(fmt.Sprintf("g %v= k, r%d read later", op, r), false, []int{r}, rmwK...)
		}
		add(fmt.Sprintf("g %v= k into another global", op), false, nil,
			ir.Instr{Op: ir.LoadG, Dst: pT, Sym: 0}, konst(pU, 3), bin(op, pV, pT, pU), ir.Instr{Op: ir.StoreG, A: pV, Sym: 1})
		rmwR := []ir.Instr{
			{Op: ir.LoadG, Dst: pT, Sym: 1}, bin(op, pV, pT, pB), {Op: ir.StoreG, A: pV, Sym: 1},
		}
		add(fmt.Sprintf("g %v= r", op), false, nil, rmwR...)
		for _, r := range []int{pT, pV} {
			add(fmt.Sprintf("g %v= r, r%d read later", op, r), false, []int{r}, rmwR...)
		}
		add(fmt.Sprintf("g %v= g", op), false, nil,
			ir.Instr{Op: ir.LoadG, Dst: pT, Sym: 1}, bin(op, pV, pT, pT), ir.Instr{Op: ir.StoreG, A: pV, Sym: 1})
	}

	// Compare into the branch: on registers and with a fused constant,
	// with the condition and the constant read later, and near misses.
	for _, op := range patternCmps {
		add(fmt.Sprintf("%v -> branch", op), true, nil, bin(op, pCond, pA, pB))
		add(fmt.Sprintf("%v -> branch, cond read later", op), true, []int{pCond}, bin(op, pCond, pA, pB))
		// pA holds 7 throughout, so each compare meets less, equal and
		// greater.
		for _, k := range []int64{5, 7, 9} {
			add(fmt.Sprintf("const %d, %v -> branch", k, op), true, nil, konst(pT, k), bin(op, pCond, pA, pT))
		}
		add(fmt.Sprintf("%v of equal operands -> branch", op), true, nil, bin(op, pCond, pA, pA))
		add(fmt.Sprintf("const, %v -> branch, cond read later", op), true, []int{pCond}, konst(pT, 5), bin(op, pCond, pA, pT))
		add(fmt.Sprintf("const, %v -> branch, const read later", op), true, []int{pT}, konst(pT, 5), bin(op, pCond, pA, pT))
		add(fmt.Sprintf("const feeds A of %v -> branch", op), true, nil, konst(pT, 5), bin(op, pCond, pT, pB))
		add(fmt.Sprintf("%v of cond -> branch", op), true, nil, bin(op, pCond, pCond, pB))
		add(fmt.Sprintf("%v, then another instr, -> branch", op), true, nil, bin(op, pCond, pA, pB), bin(ir.Add, pC, pA, pB))
	}
	add("not -> branch", true, nil, ir.Instr{Op: ir.Not, Dst: pCond, A: pA})
	add("not -> branch, cond read later", true, []int{pCond}, ir.Instr{Op: ir.Not, Dst: pCond, A: pA})
	add("const feeds not -> branch", true, nil, konst(pT, 0), ir.Instr{Op: ir.Not, Dst: pCond, A: pT})
	add("sub -> branch", true, nil, bin(ir.Sub, pCond, pA, pB))
	add("const -> branch", true, nil, konst(pCond, 1))
	add("empty -> branch", true, nil)

	// Print among fused shapes, and several prints in one run.
	add("prints", false, nil, ir.Instr{Op: ir.Print, A: pA}, ir.Instr{Op: ir.Print, A: pB}, ir.Instr{Op: ir.Print, A: pC})
	add("print between fusions", true, nil,
		konst(pT, 3), bin(ir.Add, pA, pB, pT), ir.Instr{Op: ir.Print, A: pA},
		ir.Instr{Op: ir.LoadG, Dst: pU, Sym: 0}, konst(pV, 2), bin(ir.Mul, pD, pU, pV), ir.Instr{Op: ir.StoreG, A: pD, Sym: 0},
		ir.Instr{Op: ir.Print, A: pD}, konst(pT, 9), bin(ir.Lt, pCond, pD, pT))
	return ps
}

// patternProg builds a loop whose header runs fillers filler
// instructions and then p's run, 2*TraceAt+3 times, so the run also
// executes inside the hot-path traces the loop forms:
//
//	b0: seed every register; jump b1
//	b1: fillers; p.instrs; branch pCond ? b4 : b2  (or jump b2)
//	b2: pCtr -= 1; branch pCtr ? b1 : b3
//	b3: print operands, fillers, p.later, globals, array; ret pA
//	b4: jump b2
func patternProg(t *testing.T, p pattern, fillers int) *ir.Program {
	t.Helper()
	f := &ir.Func{Name: "main", NRegs: pRegs}
	entry, run, latch, exit := f.NewBlock("entry"), f.NewBlock("run"), f.NewBlock("latch"), f.NewBlock("exit")
	for r, v := range []int64{7, -3, 12, 5, 0, 0, 0, 1, 3, -5} {
		entry.Instrs = append(entry.Instrs, konst(r, v))
	}
	entry.Instrs = append(entry.Instrs, konst(pCtr, 2*vmcompile.TraceAt+3))
	entry.Term = ir.Term{Kind: ir.Jump, To: run.Index}

	for i := 0; i < fillers; i++ {
		run.Instrs = append(run.Instrs, bin([]ir.Opcode{ir.Add, ir.Sub}[i%2], pF0+i%2, pF0+i%2, pF1-i%2))
	}
	run.Instrs = append(run.Instrs, p.instrs...)
	run.Term = ir.Term{Kind: ir.Jump, To: latch.Index}
	if p.branch {
		then := f.NewBlock("then")
		then.Term = ir.Term{Kind: ir.Jump, To: latch.Index}
		run.Term = ir.Term{Kind: ir.Branch, Cond: pCond, To: then.Index, Else: latch.Index}
	}

	latch.Instrs = []ir.Instr{konst(pOne, 1), bin(ir.Sub, pCtr, pCtr, pOne)}
	latch.Term = ir.Term{Kind: ir.Branch, Cond: pCtr, To: run.Index, Else: exit.Index}

	for _, r := range append([]int{pA, pB, pC, pD, pF0, pF1}, p.later...) {
		exit.Instrs = append(exit.Instrs, ir.Instr{Op: ir.Print, A: r})
	}
	for g := 0; g < 3; g++ {
		exit.Instrs = append(exit.Instrs, ir.Instr{Op: ir.LoadG, Dst: pScratch, Sym: g}, ir.Instr{Op: ir.Print, A: pScratch})
	}
	for i := 0; i < 4; i++ {
		exit.Instrs = append(exit.Instrs, konst(pScratch, int64(i)),
			ir.Instr{Op: ir.LoadA, Dst: pScratch, A: pScratch, Sym: 0}, ir.Instr{Op: ir.Print, A: pScratch})
	}
	exit.Term = ir.Term{Kind: ir.Ret, Ret: pA}
	f.Exit = exit.Index

	prog := &ir.Program{
		Funcs:       []*ir.Func{f},
		FuncIndex:   map[string]int{"main": 0},
		Globals:     []string{"g0", "g1", "g2"},
		GlobalInit:  []int64{6, -4, 9},
		GlobalIndex: map[string]int{"g0": 0, "g1": 1, "g2": 2},
		Arrays:      []ir.Array{{Name: "a0", Size: 4}},
		ArrayIndex:  map[string]int{"a0": 0},
	}
	if err := prog.Validate(); err != nil {
		t.Fatalf("%s: %v", p.name, err)
	}
	return prog
}

// TestPeepholePatterns runs each peephole shape on the reference
// interpreter and on the compiled executor, in dispatch and in
// traces, and requires the same return value, steps, costs, profile
// fingerprint and printed output. Each shape runs behind 0 to
// MicroMin+1 filler instructions, so its run is MicroMin-1, MicroMin
// and MicroMin+1 long, counted in instructions and in micro-ops after
// fusion, wherever the shape is short enough: both executors the
// lowering chooses between by run length see every shape. The runs
// are metered and must count the same VM counters. Each run forms
// traces, and every one must pass translation validation.
func TestPeepholePatterns(t *testing.T) {
	for _, p := range peepholePatterns() {
		t.Run(p.name, func(t *testing.T) {
			for fillers := 0; fillers <= vmcompile.MicroMin+1; fillers++ {
				prog := patternProg(t, p, fillers)
				label := fmt.Sprintf("%d fillers", fillers)
				// The budget stops a lowering that breaks the loop counter
				// long before its path profile grows large.
				opts := vm.Options{CollectEdges: true, CollectPaths: true, MaxSteps: 1 << 14}
				d, c := runBoth(t, prog, opts, true)
				if d == nil {
					t.Fatalf("%s: budget exhausted", label)
				}
				requireIdentical(t, label, d, c, prog)
				if _, ts := runMetered(t, prog, opts); ts.Formed == 0 || ts.Rejected != 0 {
					t.Fatalf("%s: %d traces formed, %d rejected", label, ts.Formed, ts.Rejected)
				}
			}
		})
	}
}

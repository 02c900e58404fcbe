package vm_test

import (
	"testing"

	"pathprof/internal/ir"
	"pathprof/internal/lower"
	"pathprof/internal/vm"
)

// TestZeroCostsDefault covers the Options.Costs sentinel: a zero
// CostModel runs under DefaultCosts(), and an explicitly non-zero model
// is used as given.
func TestZeroCostsDefault(t *testing.T) {
	prog := compile(t, loopSrc, lower.Options{})
	forEachBackend(t, func(t *testing.T, be vm.Backend) {
		defaulted := run(t, prog, vm.Options{Backend: be})
		if defaulted.BaseCost == 0 {
			t.Fatal("zero Costs should default to DefaultCosts, got BaseCost = 0")
		}
		explicit := run(t, prog, vm.Options{Costs: vm.DefaultCosts(), Backend: be})
		if explicit.BaseCost != defaulted.BaseCost || explicit.InstrCost != defaulted.InstrCost {
			t.Errorf("zero Costs ran at %d+%d, DefaultCosts() at %d+%d",
				defaulted.BaseCost, defaulted.InstrCost, explicit.BaseCost, explicit.InstrCost)
		}

		// An explicitly non-zero model is never overridden.
		instrOnly := run(t, prog, vm.Options{Costs: vm.CostModel{Instr: 1}, Backend: be})
		if instrOnly.BaseCost == 0 || instrOnly.BaseCost >= defaulted.BaseCost {
			t.Errorf("Costs{Instr:1} BaseCost = %d, want in (0, %d)", instrOnly.BaseCost, defaulted.BaseCost)
		}
	})
}

// emptyArrayProg hand-builds a program with a zero-length array (the
// front end rejects `array a[0]`), so the wrap() size==0 guard is
// reachable: loads yield 0, stores are dropped, nothing panics.
//
//	main: r0 = 7; a0[r0] = r0; r1 = a0[r0]; ret r1
func emptyArrayProg(t *testing.T) *ir.Program {
	t.Helper()
	f := &ir.Func{Name: "main", NRegs: 2}
	b := f.NewBlock("entry")
	b.Instrs = []ir.Instr{
		{Op: ir.Const, Dst: 0, Imm: 7},
		{Op: ir.StoreA, Sym: 0, A: 0, B: 0},
		{Op: ir.LoadA, Dst: 1, Sym: 0, A: 0},
	}
	b.Term = ir.Term{Kind: ir.Ret, Ret: 1}
	prog := &ir.Program{
		Funcs:      []*ir.Func{f},
		FuncIndex:  map[string]int{"main": 0},
		Arrays:     []ir.Array{{Name: "z", Size: 0}},
		ArrayIndex: map[string]int{"z": 0},
	}
	if err := prog.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	return prog
}

func TestEmptyArrayLoadStore(t *testing.T) {
	prog := emptyArrayProg(t)
	forEachBackend(t, func(t *testing.T, be vm.Backend) {
		res := run(t, prog, vm.Options{CollectEdges: true, CollectPaths: true, Backend: be})
		if res.Ret != 0 {
			t.Errorf("load from empty array = %d, want 0", res.Ret)
		}
		if res.Steps != 4 {
			t.Errorf("steps = %d, want 4", res.Steps)
		}
	})
}

// TestHugeIndexWraps exercises the wrap fast path's complement: an
// index far out of range still reduces into [0, size).
func TestHugeIndexWraps(t *testing.T) {
	src := `
array a[8];
func main() { a[8000000011] = 9; return a[3]; }`
	prog := compile(t, src, lower.Options{})
	forEachBackend(t, func(t *testing.T, be vm.Backend) {
		res := run(t, prog, vm.Options{Backend: be})
		if res.Ret != 9 {
			t.Errorf("a[8000000011 %% 8] = %d, want 9 (slot 3)", res.Ret)
		}
	})
}

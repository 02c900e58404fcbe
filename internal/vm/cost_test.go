package vm_test

import (
	"testing"

	"pathprof/internal/lower"
	"pathprof/internal/vm"
)

// TestTakenPenaltyRewardsStraightLine verifies the layout-sensitive
// part of the cost model: the same computation costs more when control
// keeps leaving the fall-through path.
func TestTakenPenaltyRewardsStraightLine(t *testing.T) {
	src := `
func main() {
	var s = 0;
	var i = 0;
	while (i < 1000) {
		if (i % 2 == 0) { s = s + 1; } else { s = s + 2; }
		i = i + 1;
	}
	return s;
}`
	prog, err := lower.Compile(src, lower.Options{})
	if err != nil {
		t.Fatal(err)
	}
	forEachExecutor(t, func(t *testing.T, on selectExec) {
		costs := vm.DefaultCosts()
		base, err := vm.Run(prog, on(vm.Options{Costs: costs}))
		if err != nil {
			t.Fatal(err)
		}
		costs.TakenPenalty = 0
		flat, err := vm.Run(prog, on(vm.Options{Costs: costs}))
		if err != nil {
			t.Fatal(err)
		}
		if base.Ret != flat.Ret || base.Steps != flat.Steps {
			t.Fatal("penalty changed semantics or step count")
		}
		if base.BaseCost <= flat.BaseCost {
			t.Errorf("taken penalty had no effect: %d vs %d", base.BaseCost, flat.BaseCost)
		}
		// The difference is exactly the number of non-fall-through
		// transfers, which for this loop is at least one per iteration.
		if base.BaseCost-flat.BaseCost < 1000 {
			t.Errorf("penalty delta %d too small for 1000 iterations", base.BaseCost-flat.BaseCost)
		}
	})
}

func TestDeepRecursionUsesHeapFrames(t *testing.T) {
	// 200k-deep recursion would overflow a goroutine stack if frames
	// were Go stack frames; the explicit frame stack must handle it.
	src := `
func down(n) {
	if (n <= 0) { return 0; }
	return down(n - 1) + 1;
}
func main() { return down(200000); }`
	prog, err := lower.Compile(src, lower.Options{})
	if err != nil {
		t.Fatal(err)
	}
	forEachExecutor(t, func(t *testing.T, on selectExec) {
		res, err := vm.Run(prog, on(vm.Options{}))
		if err != nil {
			t.Fatal(err)
		}
		if res.Ret != 200000 {
			t.Errorf("deep recursion returned %d", res.Ret)
		}
	})
}

func TestEntryFunctionWithArgs(t *testing.T) {
	src := `
func addmul(a, b, c) { return a + b * c; }
func main() { return 0; }`
	prog, err := lower.Compile(src, lower.Options{})
	if err != nil {
		t.Fatal(err)
	}
	forEachExecutor(t, func(t *testing.T, on selectExec) {
		res, err := vm.Run(prog, on(vm.Options{Entry: "addmul", Args: []int64{2, 3, 4}}))
		if err != nil {
			t.Fatal(err)
		}
		if res.Ret != 14 {
			t.Errorf("addmul(2,3,4) = %d, want 14", res.Ret)
		}
		if _, err := vm.Run(prog, on(vm.Options{Entry: "addmul", Args: []int64{1}})); err == nil {
			t.Error("arity mismatch accepted")
		}
		if _, err := vm.Run(prog, on(vm.Options{Entry: "missing"})); err == nil {
			t.Error("missing entry accepted")
		}
	})
}

func TestShiftAndBitwiseSemantics(t *testing.T) {
	src := `
func main() {
	var a = 1 << 62;
	var b = a >> 3;
	var c = (b & 255) | 129 ^ 2;
	var d = 0 - 8;
	var e = d >> 1;
	return c + e + b % 1000000007;
}`
	prog, err := lower.Compile(src, lower.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := int64(1) << 62
	b := a >> 3
	c := (b & 255) | 129 ^ 2
	e := int64(-8) >> 1 // arithmetic shift
	want := c + e + b%1000000007
	forEachExecutor(t, func(t *testing.T, on selectExec) {
		res, err := vm.Run(prog, on(vm.Options{}))
		if err != nil {
			t.Fatal(err)
		}
		if res.Ret != want {
			t.Errorf("got %d, want %d", res.Ret, want)
		}
	})
}

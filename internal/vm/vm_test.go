package vm_test

import (
	"bytes"
	"strings"
	"testing"

	"pathprof/internal/cfg"
	"pathprof/internal/instr"
	"pathprof/internal/ir"
	"pathprof/internal/lower"
	"pathprof/internal/vm"
)

func mustCFG(t testing.TB, f *ir.Func) *cfg.Graph {
	t.Helper()
	g, err := f.CFG()
	if err != nil {
		t.Fatalf("CFG %s: %v", f.Name, err)
	}
	return g
}

func compile(t testing.TB, src string, opts lower.Options) *ir.Program {
	t.Helper()
	prog, err := lower.Compile(src, opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return prog
}

func run(t testing.TB, prog *ir.Program, opts vm.Options) *vm.Result {
	t.Helper()
	res, err := vm.Run(prog, opts)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

// backends is the executor matrix for tests of execution semantics:
// the compiled default first, then the dense reference interpreter, so
// the default never silently moves coverage off the reference.
var backends = []vm.Backend{vm.BackendCompiled, vm.BackendDense}

// forEachBackend runs body as one subtest per backend.
func forEachBackend(t *testing.T, body func(t *testing.T, be vm.Backend)) {
	t.Helper()
	for _, be := range backends {
		t.Run(be.String(), func(t *testing.T) { body(t, be) })
	}
}

func TestFactorial(t *testing.T) {
	src := `
func fact(n) {
	if (n <= 1) { return 1; }
	return n * fact(n - 1);
}
func main() { return fact(10); }`
	prog := compile(t, src, lower.Options{})
	forEachBackend(t, func(t *testing.T, be vm.Backend) {
		res := run(t, prog, vm.Options{Backend: be})
		if res.Ret != 3628800 {
			t.Errorf("fact(10) = %d, want 3628800", res.Ret)
		}
		if res.DynCalls != 10 {
			t.Errorf("dynamic calls = %d, want 10", res.DynCalls)
		}
	})
}

func TestLoopsAndArrays(t *testing.T) {
	src := `
array a[16];
var total = 0;
func main() {
	for (var i = 0; i < 16; i = i + 1) { a[i] = i * i; }
	var s = 0;
	var i = 0;
	while (i < 16) {
		s = s + a[i];
		i = i + 1;
	}
	total = s;
	print(s);
	return s;
}`
	prog := compile(t, src, lower.Options{})
	forEachBackend(t, func(t *testing.T, be vm.Backend) {
		var out bytes.Buffer
		res := run(t, prog, vm.Options{Output: &out, Backend: be})
		want := int64(0)
		for i := int64(0); i < 16; i++ {
			want += i * i
		}
		if res.Ret != want {
			t.Errorf("sum = %d, want %d", res.Ret, want)
		}
		if got := strings.TrimSpace(out.String()); got != "1240" {
			t.Errorf("printed %q, want 1240", got)
		}
	})
}

func TestShortCircuitAndControl(t *testing.T) {
	src := `
var hits = 0;
func bump() { hits = hits + 1; return 1; }
func main() {
	var a = 0;
	if (a != 0 && bump() == 1) { return 100; }
	if (a == 0 || bump() == 1) { a = 5; }
	var s = 0;
	for (var i = 0; i < 10; i = i + 1) {
		if (i == 3) { continue; }
		if (i == 7) { break; }
		s = s + i;
	}
	// hits must still be 0: both bump() calls were short-circuited.
	return s * 10 + hits;
}`
	prog := compile(t, src, lower.Options{})
	forEachBackend(t, func(t *testing.T, be vm.Backend) {
		res := run(t, prog, vm.Options{Backend: be})
		// s = 0+1+2+4+5+6 = 18
		if res.Ret != 180 {
			t.Errorf("result = %d, want 180", res.Ret)
		}
	})
}

func TestDivModByZeroDefined(t *testing.T) {
	src := `func main() { var z = 0; return 7 / z + 7 % z; }`
	prog := compile(t, src, lower.Options{})
	forEachBackend(t, func(t *testing.T, be vm.Backend) {
		res := run(t, prog, vm.Options{Backend: be})
		if res.Ret != 0 {
			t.Errorf("7/0 + 7%%0 = %d, want 0", res.Ret)
		}
	})
}

func TestNegativeArrayIndexWraps(t *testing.T) {
	src := `
array a[8];
func main() { a[0-1] = 42; return a[7]; }`
	prog := compile(t, src, lower.Options{})
	forEachBackend(t, func(t *testing.T, be vm.Backend) {
		res := run(t, prog, vm.Options{Backend: be})
		if res.Ret != 42 {
			t.Errorf("a[-1] wrap = %d, want 42", res.Ret)
		}
	})
}

const loopSrc = `
var acc = 0;
func work(n) {
	var s = 0;
	for (var i = 0; i < n; i = i + 1) {
		if (i % 3 == 0) { s = s + i; } else { s = s - 1; }
	}
	return s;
}
func main() {
	for (var k = 0; k < 25; k = k + 1) { acc = acc + work(40); }
	return acc;
}`

func TestUnrollingPreservesSemantics(t *testing.T) {
	base := compile(t, loopSrc, lower.Options{})
	baseRes := run(t, base, vm.Options{CollectEdges: true})

	unrolled := compile(t, loopSrc, lower.Options{Unroll: map[string]int{"work#1": 4, "main#1": 2}})
	unRes := run(t, unrolled, vm.Options{CollectEdges: true})
	if baseRes.Ret != unRes.Ret {
		t.Fatalf("unrolling changed result: %d vs %d", baseRes.Ret, unRes.Ret)
	}

	// The unrolled inner loop executes roughly a quarter of the back
	// edges: find back edges from the edge profile applied to the CFG.
	backFreq := func(prog *ir.Program, res *vm.Result, fn string) int64 {
		g := mustCFG(t, prog.Func(fn))
		res.Edges[fn].ApplyTo(g)
		g.Analyze()
		var sum int64
		for _, e := range g.Edges {
			if e.Back {
				sum += e.Freq
			}
		}
		return sum
	}
	b := backFreq(base, baseRes, "work")
	u := backFreq(unrolled, unRes, "work")
	if u >= b/2 {
		t.Errorf("unrolled back edges = %d, base = %d; want about a quarter", u, b)
	}
	// Fewer jumps, slightly cheaper.
	if unRes.BaseCost >= baseRes.BaseCost {
		t.Errorf("unrolled cost %d >= base cost %d", unRes.BaseCost, baseRes.BaseCost)
	}
}

func TestPathProfileConsistency(t *testing.T) {
	prog := compile(t, loopSrc, lower.Options{})
	forEachBackend(t, func(t *testing.T, be vm.Backend) {
		res := run(t, prog, vm.Options{CollectEdges: true, CollectPaths: true, Backend: be})
		for name, pp := range res.Paths {
			ep := res.Edges[name]
			g := mustCFG(t, prog.Func(name))
			ep.ApplyTo(g)
			g.Analyze()
			if err := g.CheckFlow(); err != nil {
				t.Errorf("%s: %v", name, err)
			}
			// Total path executions = calls + back edge executions.
			var backs int64
			for _, e := range g.Edges {
				if e.Back {
					backs += e.Freq
				}
			}
			if got := pp.Total(); got != ep.Calls+backs {
				t.Errorf("%s: %d paths, want calls %d + backs %d", name, got, ep.Calls, backs)
			}
			// Summing recorded paths over each real edge reproduces the
			// edge profile.
			edgeSum := map[[2]int]int64{}
			for _, pc := range pp.Paths() {
				for _, e := range pc.Path {
					if e.CFG != nil {
						edgeSum[[2]int{e.CFG.Src.ID, e.CFG.Dst.ID}] += pc.Count
					}
				}
			}
			for _, e := range g.Edges {
				if e.Back {
					continue
				}
				if got := edgeSum[[2]int{e.Src.ID, e.Dst.ID}]; got != e.Freq {
					t.Errorf("%s: edge %s path-sum %d, edge profile %d", name, e, got, e.Freq)
				}
			}
		}
	})
}

func TestPPInstrumentationMatchesGroundTruth(t *testing.T) {
	prog := compile(t, loopSrc, lower.Options{})
	forEachBackend(t, func(t *testing.T, be vm.Backend) {
		// Stage 1: collect the edge profile.
		stage1 := run(t, prog, vm.Options{CollectEdges: true, CollectPaths: true, Backend: be})

		// Stage 2: build PP plans from the profile and rerun instrumented.
		plans := map[string]*instr.Plan{}
		for _, f := range prog.Funcs {
			g := mustCFG(t, f)
			stage1.Edges[f.Name].ApplyTo(g)
			p, err := instr.Build(g, instr.PP(), instr.DefaultParams(), 0)
			if err != nil {
				t.Fatalf("plan %s: %v", f.Name, err)
			}
			plans[f.Name] = p
		}
		res := run(t, prog, vm.Options{Plans: plans, CollectPaths: true, Backend: be})
		if res.Ret != stage1.Ret {
			t.Fatalf("instrumentation changed the result: %d vs %d", res.Ret, stage1.Ret)
		}
		if res.InstrCost <= 0 {
			t.Fatal("PP instrumentation has no cost")
		}

		// PP measures every path exactly: table counts must match the
		// ground-truth path profile.
		for name, table := range res.Tables {
			p := plans[name]
			truth := res.Paths[name]
			var want int64
			measured := map[int64]int64{}
			for _, ic := range table.HotCounts() {
				measured[ic.Index] = ic.Count
			}
			for _, pc := range truth.Paths() {
				num, ok := p.Num.PathNumber(pc.Path)
				if !ok {
					t.Fatalf("%s: ground truth path %s not numbered", name, pc.Path)
				}
				if measured[num] != pc.Count {
					t.Errorf("%s: path %s (#%d) measured %d, want %d",
						name, pc.Path, num, measured[num], pc.Count)
				}
				want += pc.Count
				delete(measured, num)
			}
			for num, c := range measured {
				t.Errorf("%s: phantom count %d at number %d", name, c, num)
			}
			if table.Lost != 0 || table.ColdTotal() != 0 || table.Drops != 0 {
				t.Errorf("%s: lost=%d cold=%d drops=%d, want all 0", name, table.Lost, table.ColdTotal(), table.Drops)
			}
		}
	})
}

func TestMaxStepsAborts(t *testing.T) {
	src := `func main() { var i = 0; while (i < 1000000) { i = i + 1; } return i; }`
	prog := compile(t, src, lower.Options{})
	forEachBackend(t, func(t *testing.T, be vm.Backend) {
		if _, err := vm.Run(prog, vm.Options{MaxSteps: 100, Backend: be}); err == nil {
			t.Error("expected step budget error")
		}
	})
}

func TestInfiniteLoopRejectedAtCompile(t *testing.T) {
	src := `func main() { while (1) { } return 0; }`
	if _, err := lower.Compile(src, lower.Options{}); err == nil {
		t.Error("expected error: function cannot return")
	}
}

func TestEdgeInstrumentCost(t *testing.T) {
	prog := compile(t, loopSrc, lower.Options{})
	forEachBackend(t, func(t *testing.T, be vm.Backend) {
		plain := run(t, prog, vm.Options{Backend: be})
		edged := run(t, prog, vm.Options{EdgeInstrument: true, Backend: be})
		if edged.InstrCost <= 0 {
			t.Error("edge instrumentation has no cost")
		}
		if edged.BaseCost != plain.BaseCost {
			t.Error("edge instrumentation changed base cost")
		}
	})
}

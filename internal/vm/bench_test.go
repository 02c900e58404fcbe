package vm_test

import (
	"testing"

	"pathprof/internal/instr"
	"pathprof/internal/ir"
	"pathprof/internal/lower"
	"pathprof/internal/vm"
)

// hotSrc is a VM-bound workload: a tight loop with a data-dependent
// branch, nested in repeated calls, so transitions, frames, and path
// truncation at back edges all stay hot.
const hotSrc = `
var acc = 0;
func work(n) {
	var s = 0;
	for (var i = 0; i < n; i = i + 1) {
		if (i % 3 == 0) { s = s + i; } else { s = s - 1; }
	}
	return s;
}
func main() {
	for (var k = 0; k < 500; k = k + 1) { acc = acc + work(400); }
	return acc;
}`

func hotProgram(tb testing.TB) *ir.Program {
	tb.Helper()
	prog, err := lower.Compile(hotSrc, lower.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return prog
}

// ppPlans builds PP instrumentation plans for prog from its own run.
func ppPlans(tb testing.TB, prog *ir.Program) map[string]*instr.Plan {
	tb.Helper()
	guide, err := vm.Run(prog, vm.Options{CollectEdges: true})
	if err != nil {
		tb.Fatal(err)
	}
	plans := map[string]*instr.Plan{}
	for _, f := range prog.Funcs {
		g := mustCFG(tb, f)
		guide.Edges[f.Name].ApplyTo(g)
		p, err := instr.Build(g, instr.PP(), instr.DefaultParams(), 0)
		if err != nil {
			tb.Fatal(err)
		}
		plans[f.Name] = p
	}
	return plans
}

// BenchmarkRunPlain measures the bare execution loop on each backend.
// A compiled vm.Run also pays closure compilation and translation
// validation once per run.
func BenchmarkRunPlain(b *testing.B) {
	benchRun(b, hotProgram(b), vm.Options{})
}

// BenchmarkRunProfiled measures the loop with exact edge and path
// collection, the configuration every staging run uses.
func BenchmarkRunProfiled(b *testing.B) {
	benchRun(b, hotProgram(b), vm.Options{CollectEdges: true, CollectPaths: true})
}

// BenchmarkRunInstrumented measures the loop executing a PP plan with
// modeled cost, the configuration of every instrumented rerun.
func BenchmarkRunInstrumented(b *testing.B) {
	prog := hotProgram(b)
	benchRun(b, prog, vm.Options{Plans: ppPlans(b, prog), CollectPaths: true})
}

// benchRun times one-shot vm.Run of prog under opts, as one
// sub-benchmark per backend.
func benchRun(b *testing.B, prog *ir.Program, opts vm.Options) {
	for _, be := range backends {
		b.Run(be.String(), func(b *testing.B) {
			opts.Backend = be
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := vm.Run(prog, opts)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Steps), "steps/op")
			}
		})
	}
}

// TestSteadyStateTransitionAllocs locks in the pooling win on the
// reference interpreter: a run with ~800k steps (200k+ transitions and
// 500 calls) must allocate only the per-run constant (machine setup,
// profiles, pooled-frame high-water mark) — nothing proportional to
// executed transitions.
func TestSteadyStateTransitionAllocs(t *testing.T) {
	prog := hotProgram(t)
	opts := vm.Options{CollectEdges: true, CollectPaths: true, Backend: vm.BackendDense}
	warm, err := vm.Run(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Steps < 500_000 {
		t.Fatalf("workload too small to be a steady-state probe: %d steps", warm.Steps)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := vm.Run(prog, opts); err != nil {
			t.Fatal(err)
		}
	})
	// The seed implementation allocated per transition and per call
	// (frames, arg slices, path-string keys): hundreds of thousands of
	// allocations for this workload's ~3M steps. Dense dispatch plus
	// pooling leaves only run setup (~350), independent of step count.
	if allocs > runAllocBudget {
		t.Errorf("Run allocated %.0f times for %d steps; budget %d (per-transition allocation crept back in)",
			allocs, warm.Steps, runAllocBudget)
	}
}

// runAllocBudget is the per-run allocation constant every steady-state
// test holds a ~3M-step run of hotProgram to.
const runAllocBudget = 500

// TestCompiledEngineRunAllocs is the compiled twin of
// TestSteadyStateTransitionAllocs. Closure compilation and translation
// validation are once-per-engine costs, so the engine is built outside
// the measurement; each Engine.Run binds fresh containers and executes,
// and must stay within the same per-run constant.
func TestCompiledEngineRunAllocs(t *testing.T) {
	allocs, steps := compiledEngineRunAllocs(t, vm.Options{CollectEdges: true, CollectPaths: true})
	if allocs > runAllocBudget {
		t.Errorf("Engine.Run allocated %.0f times for %d steps; budget %d (per-transition allocation crept back in)",
			allocs, steps, runAllocBudget)
	}
}

// compiledEngineRunAllocs builds a default (compiled) engine for
// hotProgram under opts and returns the allocations of one warm
// Engine.Run and its step count.
func compiledEngineRunAllocs(t *testing.T, opts vm.Options) (float64, int64) {
	t.Helper()
	e, err := vm.NewEngine(hotProgram(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	if e.Compiled() == nil {
		t.Fatal("default options built no compiled program")
	}
	warm, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return testing.AllocsPerRun(3, func() {
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}), warm.Steps
}

// TestFramePoolReuseUnderCalls verifies call-heavy execution reuses
// pooled frames: allocations stay flat when the dynamic call count
// quadruples.
func TestFramePoolReuseUnderCalls(t *testing.T) {
	src := func(calls int) string {
		return `
func leaf(n) { return n + 1; }
func main() {
	var s = 0;
	for (var i = 0; i < ` + itoa(calls) + `; i = i + 1) { s = leaf(s); }
	return s;
}`
	}
	forEachBackend(t, func(t *testing.T, be vm.Backend) {
		measure := func(calls int) float64 {
			prog, err := lower.Compile(src(calls), lower.Options{})
			if err != nil {
				t.Fatal(err)
			}
			return testing.AllocsPerRun(3, func() {
				res, err := vm.Run(prog, vm.Options{CollectPaths: true, Backend: be})
				if err != nil {
					t.Fatal(err)
				}
				if res.DynCalls != int64(calls) {
					t.Fatalf("dyn calls = %d, want %d", res.DynCalls, calls)
				}
			})
		}
		small, large := measure(20_000), measure(80_000)
		if large > small+50 {
			t.Errorf("allocations grew with call count: %.0f at 20k calls vs %.0f at 80k", small, large)
		}
	})
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

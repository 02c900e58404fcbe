package vm_test

import (
	"syscall"
	"testing"

	"pathprof/internal/core"
	"pathprof/internal/instr"
	"pathprof/internal/ir"
	"pathprof/internal/lower"
	"pathprof/internal/vm"
	"pathprof/internal/workloads"
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

// BenchmarkRunPlain measures the bare execution loop on each executor.
// Every vm.Run also pays closure compilation and translation
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
// sub-benchmark per executor.
func benchRun(b *testing.B, prog *ir.Program, opts vm.Options) {
	for _, ex := range executors {
		b.Run(ex.name, func(b *testing.B) {
			opts := ex.on(opts)
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
// 500 calls) must allocate only the per-run constant (profiles,
// pooled-frame high-water mark) — nothing proportional to executed
// transitions. The engine is built once, outside the measurement.
func TestSteadyStateTransitionAllocs(t *testing.T) {
	allocs, steps := engineRunAllocs(t, vm.Interp(vm.Options{CollectEdges: true, CollectPaths: true}))
	if steps < 500_000 {
		t.Fatalf("workload too small to be a steady-state probe: %d steps", steps)
	}
	// The seed implementation allocated per transition and per call
	// (frames, arg slices, path-string keys): hundreds of thousands of
	// allocations for this workload's ~3M steps. Dense dispatch plus
	// pooling leaves only run setup, independent of step count.
	if allocs > runAllocBudget {
		t.Errorf("Engine.Run allocated %.0f times for %d steps; budget %d (per-transition allocation crept back in)",
			allocs, steps, runAllocBudget)
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
	allocs, steps := engineRunAllocs(t, vm.Options{CollectEdges: true, CollectPaths: true})
	if allocs > runAllocBudget {
		t.Errorf("Engine.Run allocated %.0f times for %d steps; budget %d (per-transition allocation crept back in)",
			allocs, steps, runAllocBudget)
	}
}

// engineRunAllocs builds an engine for hotProgram under opts and
// returns the allocations of one warm Engine.Run and its step count.
func engineRunAllocs(t *testing.T, opts vm.Options) (float64, int64) {
	t.Helper()
	e, err := vm.NewEngine(hotProgram(t), opts)
	if err != nil {
		t.Fatal(err)
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
	forEachExecutor(t, func(t *testing.T, on selectExec) {
		measure := func(calls int) float64 {
			prog, err := lower.Compile(src(calls), lower.Options{})
			if err != nil {
				t.Fatal(err)
			}
			return testing.AllocsPerRun(3, func() {
				res, err := vm.Run(prog, on(vm.Options{CollectPaths: true}))
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

// BenchmarkInstrumentedRun measures one PP-instrumented replica of a
// staged workload on each executor: the configuration whose
// interpreter tax the compiled code exists to cut. Engine construction
// (plan lowering, DAGs, compilation and validation) is outside the
// timed region, matching the replicated serving shape where it happens
// once.
func BenchmarkInstrumentedRun(b *testing.B) {
	for _, name := range []string{"crafty", "bzip2", "swim"} {
		w, ok := workloads.ByName(name)
		if !ok {
			b.Fatalf("unknown workload %q", name)
		}
		staged, err := core.NewPipeline(w.Name, w.Source).Stage()
		if err != nil {
			b.Fatal(err)
		}
		pr, err := staged.Profile("PP", core.Profilers()[0].Tech)
		if err != nil {
			b.Fatal(err)
		}
		for _, ex := range executors {
			b.Run(name+"/"+ex.name, func(b *testing.B) {
				e, err := vm.NewEngine(staged.Prog, ex.on(vm.Options{Plans: pr.Plans, CollectPaths: true}))
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				if _, err := e.RunReplicated(b.N, 1); err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}

// cpuNanos returns the process's user plus system CPU time: on a
// shared host it leaves out the time other tenants hold the CPU, which
// wall time does not.
func cpuNanos() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// BenchmarkSuiteRun times the three profiled runs of each workload the
// way the perfbench suite makes them: a one-shot vm.Run per profiler
// (PP, TPP, PPP) with the staged program's plans and exact path
// collection, engine build included. It reports wall time per executed
// step (ns/step), the suite's vm.ns_per_step per workload. Select
// workloads with -bench 'SuiteRun/(mcf|swim)'.
func BenchmarkSuiteRun(b *testing.B) {
	for _, w := range workloads.All() {
		b.Run(w.Name, func(b *testing.B) {
			pl := core.NewPipeline(w.Name, w.Source)
			st, err := pl.Stage()
			if err != nil {
				b.Fatal(err)
			}
			var runs []vm.Options
			for _, p := range core.Profilers() {
				plans, err := st.PlansFor(p.Name, p.Tech, pl.Instr.Placement)
				if err != nil {
					b.Fatal(err)
				}
				runs = append(runs, vm.Options{
					Costs: pl.Costs, Entry: pl.Entry, MaxSteps: pl.MaxSteps,
					Plans: plans, CollectPaths: true,
				})
			}
			var steps int64
			cpu0 := cpuNanos()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, opts := range runs {
					res, err := vm.Run(st.Prog, opts)
					if err != nil {
						b.Fatal(err)
					}
					steps += res.Steps
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
			b.ReportMetric(float64(cpuNanos()-cpu0)/float64(steps), "cpu-ns/step")
		})
	}
}

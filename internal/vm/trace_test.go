package vm_test

import (
	"errors"
	"testing"

	"pathprof/internal/core"
	"pathprof/internal/ir"
	"pathprof/internal/lower"
	"pathprof/internal/telemetry"
	"pathprof/internal/vm"
	vmcompile "pathprof/internal/vm/compile"
	"pathprof/internal/workloads"
)

// traceCount is a metered run's trace formations, read from its VM
// counters.
type traceCount struct{ Formed, Rejected int64 }

// runMetered runs prog once under opts, metered, and returns the
// result and the run's trace formations.
func runMetered(t *testing.T, prog *ir.Program, opts vm.Options) (*vm.Result, traceCount) {
	t.Helper()
	m := telemetry.NewVMMetrics(telemetry.NewRegistry(1))
	opts.Metrics = m
	res, err := vm.Run(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res, traceCount{m.TracesFormed.Value(), m.TracesRejected.Value()}
}

// TestTracesValidateOnWorkloads runs every workload's PP, TPP and PPP
// profiling runs as the suite makes them, metered and unmetered. The
// two must be identical: a metered run is the production executor. The
// metered run must form hot-path traces, and every trace it forms must
// pass translation validation: a rejected trace is not wrong (it is
// never installed) but it is a trace former bug.
func TestTracesValidateOnWorkloads(t *testing.T) {
	ws := workloads.All()
	if testing.Short() {
		ws = ws[:4]
	}
	for _, w := range ws {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			pl := core.NewPipeline(w.Name, w.Source)
			st, err := pl.Stage()
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range core.Profilers() {
				plans, err := st.PlansFor(p.Name, p.Tech, pl.Instr.Placement)
				if err != nil {
					t.Fatal(err)
				}
				opts := vm.Options{
					Costs: pl.Costs, Entry: pl.Entry, MaxSteps: pl.MaxSteps,
					Plans: plans, CollectPaths: true,
				}
				res, tc := runMetered(t, st.Prog, opts)
				if tc.Formed == 0 || tc.Rejected != 0 {
					t.Errorf("%s: metered run formed %d traces and rejected %d, want some and none", p.Name, tc.Formed, tc.Rejected)
				}
				if res.Ret != st.Base.Ret {
					t.Errorf("%s: ret %d, staged %d", p.Name, res.Ret, st.Base.Ret)
				}
				bare, err := vm.Run(st.Prog, opts)
				if err != nil {
					t.Fatal(err)
				}
				requireSameRun(t, p.Name+" metered vs unmetered", bare, res)
			}
		})
	}
}

// traceLoopSrc runs one loop well past compile.TraceAt iterations with
// a two-way branch in its body, so a trace and a side trace form
// mid-run.
const traceLoopSrc = `
var acc = 0;
func main() {
	var s = 0;
	for (var i = 0; i < 300; i = i + 1) {
		if (i % 3 == 0) { s = s + i; } else { s = s - 1; }
	}
	acc = s;
	return s;
}`

// TestTraceBudgetSweep exhausts the step budget at every step across
// the iterations where the loop's traces form and first run, so the
// budget runs out right at a trace's entry, inside it, and just after
// it: the compiled executor must fail (or succeed) at exactly the same
// budgets as the reference interpreter, with the same results.
func TestTraceBudgetSweep(t *testing.T) {
	prog := compile(t, traceLoopSrc, lower.Options{})
	full, ts := runMetered(t, prog, vm.Options{CollectEdges: true, CollectPaths: true})
	if ts.Formed < 2 || ts.Rejected != 0 {
		t.Fatalf("trace formations %+v, want a trace and a side trace", ts)
	}
	// The loop runs ~11 steps per iteration; sweep a window of
	// iterations around the trace threshold and the first traced runs.
	per := full.Steps / 300
	lo, hi := per*(vmcompile.TraceAt-4), per*(2*vmcompile.TraceAt+8)
	for budget := lo; budget <= hi; budget++ {
		opts := vm.Options{CollectEdges: true, CollectPaths: true, MaxSteps: budget}
		want, werr := vm.Run(prog, vm.Interp(opts))
		got, gerr := vm.Run(prog, opts)
		if errors.Is(werr, vm.ErrMaxSteps) != errors.Is(gerr, vm.ErrMaxSteps) || (werr == nil) != (gerr == nil) {
			t.Fatalf("budget %d: interpreter err %v, compiled err %v", budget, werr, gerr)
		}
		if werr == nil {
			requireSameRun(t, "budget", want, got)
		}
	}
}

// TestFuzzSeedsFormTraces guards the differential fuzzer's hot-loop
// shape: its hot-loop seeds must generate programs whose runs form
// traces, or the fuzzer no longer exercises them.
func TestFuzzSeedsFormTraces(t *testing.T) {
	for _, seed := range hotSeeds {
		_, ts := runMetered(t, genProg(seed), vm.Options{CollectEdges: true, CollectPaths: true})
		if ts.Formed == 0 || ts.Rejected != 0 {
			t.Errorf("seed %v: trace formations %+v, want some and none rejected", seed, ts)
		}
	}
}

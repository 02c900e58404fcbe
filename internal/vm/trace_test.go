package vm_test

import (
	"errors"
	"testing"

	"pathprof/internal/core"
	"pathprof/internal/ir"
	"pathprof/internal/lower"
	"pathprof/internal/profile"
	"pathprof/internal/telemetry"
	"pathprof/internal/vm"
	vmcompile "pathprof/internal/vm/compile"
	"pathprof/internal/workloads"
)

// traceCount is a metered run's trace formations, entries and side
// exits, read from its VM counters.
type traceCount struct{ Formed, Rejected, Entries, Exits int64 }

// runMetered runs prog once under opts, metered, and returns the
// result and the run's trace counts.
func runMetered(t *testing.T, prog *ir.Program, opts vm.Options) (*vm.Result, traceCount) {
	t.Helper()
	m := telemetry.NewVMMetrics(telemetry.NewRegistry(1))
	opts.Metrics = m
	res, err := vm.Run(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res, traceCount{m.TracesFormed.Value(), m.TracesRejected.Value(), m.TraceEntries.Value(), m.TraceExits.Value()}
}

// TestTracesValidateOnWorkloads runs every workload's PP, TPP and PPP
// profiling runs as the suite makes them, metered and unmetered. The
// two must be identical: a metered run is the production executor. The
// metered run must form hot-path traces, and every trace it forms must
// pass translation validation: a rejected trace is not wrong (it is
// never installed) but it is a trace former bug. It must enter its
// traces, and no more of those entries may leave by a side exit than
// there are entries.
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
				if tc.Entries == 0 || tc.Exits > tc.Entries {
					t.Errorf("%s: metered run entered traces %d times with %d side exits, want some entries and no more exits", p.Name, tc.Entries, tc.Exits)
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

// guardOps names every exit-if guard opcode a trace's stream can hold:
// the register and constant compares, and the zero and non-zero tests
// of a condition register.
var guardOps = []string{"eq", "ne", "lt", "le", "gt", "ge", "eqk", "nek", "ltk", "lek", "gtk", "gek", "z", "nz"}

// TestTraceGuardCoverage runs the branch shapes of TestPeepholePatterns
// with their operands pA and pB changing value late in the loop, after
// its traces have formed, from each of four starting pairs, so that
// every compare turns from true to false or from false to true in some
// run. Every exit-if guard opcode must appear in a formed trace and
// take a side exit at least once.
func TestTraceGuardCoverage(t *testing.T) {
	// Each phase gives pA and pB their values before and after the
	// switch.
	phases := [][4]int64{{7, -3, -3, 7}, {-3, 7, 7, -3}, {7, 7, 7, -3}, {7, -3, 7, 7}}
	seen, exits := map[string]bool{}, map[string]int64{}
	for _, p := range peepholePatterns() {
		if !p.branch {
			continue
		}
		for _, ph := range phases {
			prog := phasedProg(t, p, ph)
			m := telemetry.NewVMMetrics(telemetry.NewRegistry(1))
			eng, err := vm.NewEngine(prog, vm.Options{CollectPaths: true, Metrics: m})
			if err != nil {
				t.Fatalf("%s: %v", p.name, err)
			}
			fts := []vmcompile.FuncRun{{Paths: profile.NewPathProfile("main")}}
			x, err := vmcompile.NewExec(eng.Compiled(), vmcompile.Config{Fts: fts, Tel: m.Cells(0), MaxSteps: 1 << 14})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := x.Run(0, nil); err != nil {
				t.Fatalf("%s %v: %v", p.name, ph, err)
			}
			if m.TracesRejected.Value() != 0 {
				t.Errorf("%s %v: %d traces rejected", p.name, ph, m.TracesRejected.Value())
			}
			x.GuardExits(func(op string, n int64) {
				seen[op] = true
				exits[op] += n
			})
		}
	}
	for _, op := range guardOps {
		if !seen[op] || exits[op] == 0 {
			t.Errorf("guard %s: in a formed trace %v, side exits %d; want it formed and exiting", op, seen[op], exits[op])
		}
	}
	if len(seen) != len(guardOps) {
		t.Errorf("formed traces hold guards %v, want exactly %v", seen, guardOps)
	}
}

// phasedProg builds p's pattern program (patternProg, no fillers) with
// pA and pB seeded to ph[0] and ph[1], and has its latch set them to
// ph[2] and ph[3], without a branch, when the loop counter reaches 40:
// about 90 iterations in, after the loop's traces have formed, with
// too few iterations left for the new direction to form side traces.
func phasedProg(t *testing.T, p pattern, ph [4]int64) *ir.Program {
	t.Helper()
	prog := patternProg(t, p, 0)
	f := prog.Funcs[0]
	entry, latch := f.Blocks[0], f.Blocks[2]
	entry.Instrs[pA].Imm, entry.Instrs[pB].Imm = ph[0], ph[1]
	// at is 1 in the switch iteration and 0 in every other; each operand
	// r becomes r + at*(v-r).
	at, v := f.NRegs, f.NRegs+1
	f.NRegs += 2
	sw := []ir.Instr{konst(v, 40), bin(ir.Eq, at, pCtr, v)}
	for i, r := range []int{pA, pB} {
		sw = append(sw, konst(v, ph[2+i]), bin(ir.Sub, v, v, r), bin(ir.Mul, v, v, at), bin(ir.Add, r, r, v))
	}
	latch.Instrs = append(sw, latch.Instrs...)
	if err := prog.Validate(); err != nil {
		t.Fatalf("%s: %v", p.name, err)
	}
	return prog
}

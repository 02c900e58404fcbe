package compile_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"pathprof/internal/cfg"
	"pathprof/internal/core"
	"pathprof/internal/instr"
	"pathprof/internal/ir"
	"pathprof/internal/lower"
	"pathprof/internal/profile"
	"pathprof/internal/telemetry"
	"pathprof/internal/vm"
	"pathprof/internal/vm/compile"
	"pathprof/internal/workloads"
)

// validateSrc exercises every terminator shape the validator drives:
// loops (back-edge path truncation), branches both directions, calls
// (non-solo blocks), and straight-line runs (solo charge folding).
const validateSrc = `
var total = 0;
func weigh(n) {
	var s = 0;
	while (n > 0) {
		if (n % 3 == 0) { s = s + 2; } else { s = s + 1; }
		n = n - 1;
	}
	return s;
}
func mix(n) {
	var s = 0;
	var i = 0;
	while (i < n) {
		if (i % 2 == 0) { s = s + 1; } else { s = s + 3; }
		if (i % 3 == 0) { s = s * 2; } else { s = s - 1; }
		if (i % 97 == 0) { s = s + 11; }
		if (i % 5 == 0) { s = s ^ 7; }
		i = i + 1;
	}
	return s;
}
func main() {
	var acc = 0;
	for (var i = 0; i < 40; i = i + 1) {
		acc = acc + weigh(i) + mix(i * 7);
	}
	total = acc;
	return acc;
}`

// buildPlanned compiles validateSrc, plans it with tech and par against
// its own edge profile, and builds a validated compiled engine.
func buildPlanned(t *testing.T, opts vm.Options, tech instr.Techniques, par instr.Params) (*vm.Engine, *ir.Program, map[string]*instr.Plan) {
	t.Helper()
	prog, plans := planned(t, tech, par)
	opts.Plans = plans
	eng, err := vm.NewEngine(prog, opts)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	return eng, prog, plans
}

// planned compiles validateSrc and plans it with tech and par against
// its own edge profile.
func planned(t *testing.T, tech instr.Techniques, par instr.Params) (*ir.Program, map[string]*instr.Plan) {
	t.Helper()
	prog, err := lower.Compile(validateSrc, lower.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	// Stage 1: ground-truth edge profile to plan against.
	stage1, err := vm.Run(prog, vm.Options{CollectEdges: true, CollectPaths: true})
	if err != nil {
		t.Fatalf("stage1: %v", err)
	}
	plans := map[string]*instr.Plan{}
	for _, f := range prog.Funcs {
		g, err := f.CFG()
		if err != nil {
			t.Fatalf("cfg %s: %v", f.Name, err)
		}
		stage1.Edges[f.Name].ApplyTo(g)
		p, err := instr.Build(g, tech, par, 0)
		if err != nil {
			t.Fatalf("plan %s: %v", f.Name, err)
		}
		plans[f.Name] = p
	}
	return prog, plans
}

// TestValidatePasses proves every routine of a representative
// instrumented program under the run shapes that change what the
// transitions do (edge slots, path tracking, hooks), and under
// the plan shapes that change how op streams lower: PPP's array
// counts, check-based poisoning (every count carries an r<0 check, so
// streams take the generic lowering), and PP's hash-table counts.
func TestValidatePasses(t *testing.T) {
	full := vm.Options{
		CollectPaths: true, CollectEdges: true, EdgeInstrument: true,
		PathHook: func(string, cfg.Path) {},
	}
	checked := instr.PPP()
	checked.FreePoison = false
	hashed := instr.DefaultParams()
	hashed.HashThreshold = 1
	shapes := []struct {
		name string
		opts vm.Options
		tech instr.Techniques
		par  instr.Params
		// want reports whether a plan has the shape the case is for.
		want func(p *instr.Plan) bool
	}{
		{"plain", vm.Options{}, instr.PPP(), instr.DefaultParams(), nil},
		{"paths", vm.Options{CollectPaths: true}, instr.PPP(), instr.DefaultParams(), nil},
		{"edges", vm.Options{CollectEdges: true, EdgeInstrument: true}, instr.PPP(), instr.DefaultParams(), nil},
		{"full", full, instr.PPP(), instr.DefaultParams(), nil},
		{"poison-check", full, checked, instr.DefaultParams(), func(p *instr.Plan) bool { return p.PoisonCheck }},
		// PP keeps every path, so a threshold of one path hashes every
		// instrumented routine.
		{"pp-hash", full, instr.PP(), hashed, func(p *instr.Plan) bool { return p.Hash }},
	}
	for _, sh := range shapes {
		sh := sh
		t.Run(sh.name, func(t *testing.T) {
			eng, _, plans := buildPlanned(t, sh.opts, sh.tech, sh.par)
			if sh.want != nil {
				found := false
				for _, p := range plans {
					found = found || p.Instrumented && sh.want(p)
				}
				if !found {
					t.Fatalf("no instrumented routine has the %s plan shape", sh.name)
				}
			}
			res, err := eng.Run()
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			us := eng.ValidateUs()
			if len(us) == 0 {
				t.Fatal("compiled engine reports no validation timings")
			}
			for fn, v := range us {
				if v < 0 {
					t.Errorf("%s: negative validation time %d", fn, v)
				}
			}
			if res.ValidateUs == nil {
				t.Error("Result.ValidateUs not populated")
			}
		})
	}
}

// TestValidateDetectsMutation corrupts one fused terminator constant
// via the lowering-mutation hook and asserts validation rejects the
// build with a structured error naming the exact block pair, the
// field (or, with prefix, the field's kind), and the first probe. A
// planned case compiles validateSrc under its PPP plans, whose
// transitions carry counts.
func TestValidateDetectsMutation(t *testing.T) {
	pathsOnly := vm.Options{CollectPaths: true}
	mutations := []struct {
		name    string
		arm     func() *compile.MutatedSite
		opts    vm.Options
		field   func(site *compile.MutatedSite) string
		planned bool
		prefix  bool
	}{
		{"base-cost", func() *compile.MutatedSite { return compile.MutateFirstSuccBase(7) }, pathsOnly,
			func(*compile.MutatedSite) string { return "base" }, false, false},
		{"step-fold", func() *compile.MutatedSite { return compile.MutateFirstSuccSteps(7) }, pathsOnly,
			func(*compile.MutatedSite) string { return "steps" }, false, false},
		// The bump lands one slot along, so the first slot whose count
		// diverges is the mutated transition's own.
		{"edge-slot", func() *compile.MutatedSite { return compile.MutateFirstSuccEdgeSlot(1) },
			vm.Options{CollectEdges: true, CollectPaths: true},
			func(site *compile.MutatedSite) string { return fmt.Sprintf("edge[%d->%d]", site.From, site.To) }, false, false},
		{"reg", func() *compile.MutatedSite { return compile.MutateFirstSuccAdd(7) }, pathsOnly,
			func(*compile.MutatedSite) string { return "reg" }, false, false},
		{"icost", func() *compile.MutatedSite { return compile.MutateFirstSuccICost(7) }, pathsOnly,
			func(*compile.MutatedSite) string { return "icost" }, false, false},
		// The index the count lands on, or the drop of an index moved out
		// of the table, is the first difference in the counter table.
		{"count", func() *compile.MutatedSite { return compile.MutateFirstSuccCount(1) }, pathsOnly,
			func(*compile.MutatedSite) string { return "table" }, true, true},
	}
	for _, mu := range mutations {
		mu := mu
		t.Run(mu.name, func(t *testing.T) {
			prog, plans := planned(t, instr.PPP(), instr.DefaultParams())
			opts := mu.opts
			if mu.planned {
				opts.Plans = plans
			}
			site := mu.arm()
			defer compile.ClearMutateSucc()
			_, err := vm.NewEngine(prog, opts)
			if err == nil {
				t.Fatalf("mutated lowering (%s at %s %d->%d) passed translation validation",
					mu.name, site.Fn, site.From, site.To)
			}
			var ve *compile.ValidationError
			if !errors.As(err, &ve) {
				t.Fatalf("want *compile.ValidationError, got %T: %v", err, err)
			}
			if ve.Routine != site.Fn || ve.From != site.From || ve.To != site.To {
				t.Errorf("error names %s %d->%d, mutation was at %s %d->%d",
					ve.Routine, ve.From, ve.To, site.Fn, site.From, site.To)
			}
			if want := mu.field(site); ve.Field != want && !(mu.prefix && strings.HasPrefix(ve.Field, want)) {
				t.Errorf("error field %q, want %q", ve.Field, want)
			}
			if ve.Probe != 0 {
				t.Errorf("error probe %d, want the first probe 0", ve.Probe)
			}
			if !strings.Contains(err.Error(), site.Fn) {
				t.Errorf("error %q does not name the routine %q", err, site.Fn)
			}
		})
	}
}

// TestValidateProbesAllocateNothing pins the probe loop's zero-alloc
// contract: once a routine's harness is built and its paths interned,
// driving every arm through every probe again allocates nothing, on
// array and on hash counter tables.
func TestValidateProbesAllocateNothing(t *testing.T) {
	hashed := instr.DefaultParams()
	hashed.HashThreshold = 1
	for _, tc := range []struct {
		name string
		tech instr.Techniques
		par  instr.Params
		hash bool
	}{
		{"array", instr.PPP(), instr.DefaultParams(), false},
		// PP keeps every path, so a threshold of one path hashes every
		// instrumented routine.
		{"hash", instr.PP(), hashed, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, prog, plans := buildPlanned(t, vm.Options{CollectEdges: true, CollectPaths: true}, tc.tech, tc.par)
			hashes := 0
			for _, p := range plans {
				if p.Instrumented && p.Hash {
					hashes++
				}
			}
			if tc.hash != (hashes > 0) {
				t.Fatalf("%d hash-table routines; want some: %v", hashes, tc.hash)
			}
			v := compile.NewValidator(eng.Compiled())
			for fi, f := range prog.Funcs {
				if err := v.Func(fi); err != nil {
					t.Fatalf("%s: %v", f.Name, err)
				}
				redrive := func() {
					if err := v.RedriveArms(); err != nil {
						t.Fatalf("%s: re-driven arms: %v", f.Name, err)
					}
				}
				if avg := testing.AllocsPerRun(10, redrive); avg != 0 {
					t.Errorf("%s: re-driving every arm allocates %.1f times, want 0", f.Name, avg)
				}
			}
		})
	}
}

// BenchmarkValidate measures translation validation of vpr's PPP
// plans under both placements: plain (the engines the replan
// benchmark builds collect neither profile), paths only, and edges
// plus paths.
func BenchmarkValidate(b *testing.B) {
	w, ok := workloads.ByName("vpr")
	if !ok {
		b.Fatal("no vpr workload")
	}
	st, err := core.NewPipeline(w.Name, w.Source).Stage()
	if err != nil {
		b.Fatal(err)
	}
	var planSets []map[string]*instr.Plan
	for _, pl := range []instr.Placement{instr.PlaceSpanning, instr.PlaceMinCost} {
		plans, err := st.PlansGuided("PPP", instr.PPP(), pl, nil)
		if err != nil {
			b.Fatal(err)
		}
		planSets = append(planSets, plans)
	}
	for _, sh := range []struct {
		name string
		opts vm.Options
	}{
		{"plain", vm.Options{}},
		{"paths", vm.Options{CollectPaths: true}},
		{"edges+paths", vm.Options{CollectEdges: true, CollectPaths: true}},
	} {
		b.Run(sh.name, func(b *testing.B) {
			var progs []*compile.Program
			for _, plans := range planSets {
				opts := sh.opts
				opts.Plans = plans
				eng, err := vm.NewEngine(st.Prog, opts)
				if err != nil {
					b.Fatal(err)
				}
				progs = append(progs, eng.Compiled())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, cp := range progs {
					if err := compile.Validate(cp); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// traceCount is a metered run's trace formations, read from its VM
// counters.
type traceCount struct{ Formed, Rejected int64 }

// execRun is what runExec reports of a run: its return value, the
// fingerprint of its path profiles and counter tables, its steps, and
// its trace formations.
type execRun struct {
	ret    int64
	fp     uint64
	steps  int64
	traces traceCount
}

// runExec runs prog's main on a bare, metered compiled Exec with exact
// path collection under plans (nil for none) and a step budget of
// maxSteps (0 for none). A mutated run gets a few times the clean
// run's steps, so a miscompiled trace that loops fails the test
// promptly instead of hanging it.
func runExec(t *testing.T, prog *ir.Program, plans map[string]*instr.Plan, maxSteps int64) execRun {
	t.Helper()
	m := telemetry.NewVMMetrics(telemetry.NewRegistry(1))
	eng, err := vm.NewEngine(prog, vm.Options{Plans: plans, CollectPaths: true, Metrics: m})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	fts := make([]compile.FuncRun, len(prog.Funcs))
	snap := &profile.Snapshot{Paths: map[string]*profile.PathProfile{}, Tables: map[string]*profile.Table{}}
	for i, f := range prog.Funcs {
		fts[i].Paths = profile.NewPathProfile(f.Name)
		snap.Paths[f.Name] = fts[i].Paths
		if p := plans[f.Name]; p != nil && p.Instrumented {
			kind := profile.ArrayTable
			if p.Hash {
				kind = profile.HashTable
			}
			fts[i].Table = profile.NewTable(kind, p.N, p.TableSize)
			snap.Tables[f.Name] = fts[i].Table
		}
	}
	x, err := compile.NewExec(eng.Compiled(), compile.Config{Fts: fts, Tel: m.Cells(0), MaxSteps: maxSteps})
	if err != nil {
		t.Fatalf("exec: %v", err)
	}
	ret, err := x.Run(prog.FuncIndex["main"], nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return execRun{ret, snap.Fingerprint(), x.Counters().Steps, traceCount{m.TracesFormed.Value(), m.TracesRejected.Value()}}
}

// runMutated runs prog as runExec does with a budget of four times the
// clean run's steps.
func runMutated(t *testing.T, prog *ir.Program, plans map[string]*instr.Plan, clean execRun) execRun {
	t.Helper()
	return runExec(t, prog, plans, 4*clean.steps)
}

// TestValidateRejectsMutatedTrace proves trace validation is not
// vacuous: a trace whose summed charges or end node, one side exit's
// restored state or off-trace arm, a register fold or count in its
// stream, or its restart node are corrupted after formation must fail
// validation and never be installed, so the run's results stay exactly
// those of an uncorrupted run, which forms and installs every trace.
// runExec is metered, so an exit's VM tally is observable.
func TestValidateRejectsMutatedTrace(t *testing.T) {
	prog, plans := planned(t, instr.PPP(), instr.DefaultParams())
	clean := runExec(t, prog, plans, 0)
	if clean.traces.Formed == 0 || clean.traces.Rejected != 0 {
		t.Fatalf("unmutated run formed traces %+v, want some and none rejected", clean.traces)
	}
	for _, tc := range []struct {
		name string
		arm  func() *compile.MutatedSite
	}{
		{"base", func() *compile.MutatedSite { return compile.MutateFirstTraceBase(1) }},
		{"steps", func() *compile.MutatedSite { return compile.MutateFirstTraceSteps(1) }},
		{"icost", func() *compile.MutatedSite { return compile.MutateFirstTraceICost(2) }},
		{"end", func() *compile.MutatedSite { return compile.MutateFirstTraceEnd(1) }},
		{"exit-steps", func() *compile.MutatedSite { return compile.MutateFirstExitSteps(1) }},
		{"exit-base", func() *compile.MutatedSite { return compile.MutateFirstExitBase(1) }},
		{"exit-icost", func() *compile.MutatedSite { return compile.MutateFirstExitICost(2) }},
		{"exit-tally", func() *compile.MutatedSite { return compile.MutateFirstExitTally(1) }},
		{"exit-node", func() *compile.MutatedSite { return compile.MutateFirstExitNode(1) }},
		{"exit-plen", func() *compile.MutatedSite { return compile.MutateFirstExitPlen(1) }},
		{"exit-arm", compile.MutateFirstExitArm},
		{"fold", func() *compile.MutatedSite { return compile.MutateFirstTraceFold(1) }},
		{"count", func() *compile.MutatedSite { return compile.MutateFirstTraceCount(1) }},
		{"restart", func() *compile.MutatedSite { return compile.MutateFirstTraceRestart(1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			site := tc.arm()
			defer compile.ClearMutateTrace()
			got := runMutated(t, prog, plans, clean)
			if site.From < 0 {
				t.Fatal("mutation hook never fired")
			}
			if got.traces.Rejected != 1 {
				t.Errorf("mutated trace at %s block %d: %d traces rejected, want 1", site.Fn, site.From, got.traces.Rejected)
			}
			if got.ret != clean.ret || got.fp != clean.fp {
				t.Errorf("mutated run: ret %d fingerprint %#x, want %d %#x", got.ret, got.fp, clean.ret, clean.fp)
			}
		})
	}
}

// TestValidateRejectsMutatedGuard proves the guard check is not
// vacuous: a trace whose guard exits in the wrong direction has every
// constant and effect right, so only the check of each guard against
// its block's own branch can reject it. The trace must be rejected,
// and the run's results must stay exactly those of an unmutated run.
func TestValidateRejectsMutatedGuard(t *testing.T) {
	prog, plans := planned(t, instr.PPP(), instr.DefaultParams())
	clean := runExec(t, prog, plans, 0)
	if clean.traces.Formed == 0 || clean.traces.Rejected != 0 {
		t.Fatalf("unmutated run formed traces %+v, want some and none rejected", clean.traces)
	}
	site := compile.MutateFirstTraceGuard()
	defer compile.ClearMutateTrace()
	got := runMutated(t, prog, plans, clean)
	if site.From < 0 {
		t.Fatal("no formed trace had a guard to mutate")
	}
	if got.traces.Rejected != 1 {
		t.Errorf("trace with a reversed guard at %s block %d: %d traces rejected, want 1", site.Fn, site.From, got.traces.Rejected)
	}
	if got.ret != clean.ret || got.fp != clean.fp {
		t.Errorf("mutated run: ret %d fingerprint %#x, want %d %#x", got.ret, got.fp, clean.ret, clean.fp)
	}
}

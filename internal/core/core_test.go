package core_test

import (
	"fmt"
	"testing"

	"pathprof/internal/core"
	"pathprof/internal/instr"
)

var demoSrc = func() string {
	pad := "func pad(x) {\n\tvar a = x;\n"
	for i := 0; i < 120; i++ {
		pad += "\ta = a * 3 + 1;\n"
	}
	pad += "\treturn a;\n}\n"
	return pad + demoBody
}()

const demoBody = `
var total = 0;
array data[128];

func weight(x) { return x * 3 % 17 + 1; }

func score(i) {
	var s = 0;
	if (data[i % 128] % 2 == 0) { s = s + weight(i); } else { s = s - 1; }
	if (data[(i + 1) % 128] % 4 < 2) { s = s + 2; } else { s = s - weight(i + 1); }
	return s;
}

func main() {
	total = total + pad(3);
	for (var i = 0; i < 128; i = i + 1) { data[i] = (i * 2654435761) % 1009; }
	var it = 0;
	while (it < 3000) {
		total = total + score(it);
		if (total % 7 == 0) { total = total + 1; }
		it = it + 1;
	}
	print(total);
	return total;
}
`

func stage(t *testing.T) *core.Staged {
	t.Helper()
	s, err := core.NewPipeline("demo", demoSrc).Stage()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStageInvariants(t *testing.T) {
	s := stage(t)
	if s.Base.Ret != s.OriginalRun.Ret {
		t.Fatal("optimization changed the program result")
	}
	if s.Speedup() < 1 {
		t.Errorf("speedup = %v < 1 with call-cost savings available", s.Speedup())
	}
	if got := s.PctCallsInlined(); got <= 0 || got > 1 {
		t.Errorf("%% calls inlined = %v, want in (0, 1]", got)
	}
	if s.TotalUnitFlow() <= 0 {
		t.Error("no dynamic paths recorded")
	}
	stats := core.StatsOf(s.Base)
	if stats.DynPaths == 0 || stats.AvgInstrs <= 0 {
		t.Errorf("bad stats %+v", stats)
	}
	// Inlining+unrolling must lengthen paths.
	orig := core.StatsOf(s.OriginalRun)
	if stats.AvgInstrs <= orig.AvgInstrs {
		t.Errorf("paths did not lengthen: %v vs %v", stats.AvgInstrs, orig.AvgInstrs)
	}
}

func TestNoOptPipeline(t *testing.T) {
	p := core.NewPipeline("demo", demoSrc)
	p.NoOpt = true
	s, err := p.Stage()
	if err != nil {
		t.Fatal(err)
	}
	if s.Prog != s.Original {
		t.Error("NoOpt should reuse the original program")
	}
	if s.Speedup() != 1 {
		t.Errorf("NoOpt speedup = %v, want 1", s.Speedup())
	}
}

func TestProfilersOrdering(t *testing.T) {
	s := stage(t)
	overheads := map[string]float64{}
	for _, p := range core.Profilers() {
		pr, err := s.Profile(p.Name, p.Tech)
		if err != nil {
			t.Fatal(err)
		}
		overheads[p.Name] = pr.Overhead()
		if pr.Run.Ret != s.Base.Ret {
			t.Fatalf("%s changed the program result", p.Name)
		}
		if pr.Overhead() < 0 {
			t.Errorf("%s negative overhead %v", p.Name, pr.Overhead())
		}
	}
	if overheads["PP"] <= 0 {
		t.Error("PP overhead must be positive")
	}
	if overheads["TPP"] > overheads["PP"] {
		t.Errorf("TPP %v exceeds PP %v", overheads["TPP"], overheads["PP"])
	}
	if overheads["PPP"] > overheads["TPP"]+1e-9 {
		t.Errorf("PPP %v exceeds TPP %v", overheads["PPP"], overheads["TPP"])
	}
}

func TestProfileEvalSanity(t *testing.T) {
	s := stage(t)
	pp, err := s.Profile("PP", instr.PP())
	if err != nil {
		t.Fatal(err)
	}
	hot := pp.Eval.HotPaths(0.00125)
	if len(hot) == 0 {
		t.Fatal("no hot paths")
	}
	// PP measures everything exactly.
	cov := pp.Eval.Coverage()
	if cov.Value() < 0.999 {
		t.Errorf("PP coverage = %v (%+v)", cov.Value(), cov)
	}
	frac := pp.Eval.InstrumentedFraction()
	if frac.Total() < 0.999 {
		t.Errorf("PP instrumented fraction = %v", frac.Total())
	}
}

func TestAblationsComplete(t *testing.T) {
	ab := core.Ablations()
	for _, name := range []string{"SAC", "FP", "Push", "SPN", "LC"} {
		tech, ok := ab[name]
		if !ok {
			t.Fatalf("missing ablation %s", name)
		}
		if tech == instr.PPP() {
			t.Errorf("ablation %s identical to PPP", name)
		}
	}
	s := stage(t)
	for name, tech := range ab {
		pr, err := s.Profile("PPP-"+name, tech)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if pr.Run.Ret != s.Base.Ret {
			t.Fatalf("%s changed the result", name)
		}
	}
}

func TestEdgeOverheadRun(t *testing.T) {
	s := stage(t)
	res, err := s.EdgeOverheadRun()
	if err != nil {
		t.Fatal(err)
	}
	if res.Overhead() <= 0 {
		t.Error("edge instrumentation should cost something")
	}
	if res.Ret != s.Base.Ret {
		t.Error("edge instrumentation changed the result")
	}
}

func TestStageRejectsBadSource(t *testing.T) {
	if _, err := core.NewPipeline("bad", "func main() {").Stage(); err == nil {
		t.Error("expected parse error")
	}
	if _, err := core.NewPipeline("bad", "func main() { return f(); }").Stage(); err == nil {
		t.Error("expected undefined function error")
	}
}

// explosionSrc builds a routine with 2^70 acyclic paths — enough to
// overflow 64-bit Ball-Larus numbering — out of 70 sequential
// if/else diamonds. mod controls branch bias: mod=2 keeps both arms
// warm (TPP's 5% local criterion cannot prune), mod=32 leaves the
// then-arm at ~3% so TPP removes it.
func explosionSrc(mod int) string {
	body := "func blow(n) {\n\tvar s = 0;\n"
	for i := 0; i < 70; i++ {
		body += fmt.Sprintf(
			"\tif ((n + %d) %% %d == 0) { s = s + %d; } else { s = s - 1; }\n",
			i, mod, i+1)
	}
	body += "\treturn s;\n}\n"
	return body + `
func main() {
	var t = 0;
	for (var i = 0; i < 200; i = i + 1) { t = t + blow(i); }
	print(t);
	return t;
}
`
}

// explode profiles the explosion source under plain PP, the technique
// with no cold-path removal: numbering overflows immediately, which is
// what pushes a routine onto the ladder. (PPP itself rarely gets
// there — its self-adjusting criterion prunes the path space first,
// ending in no-hot-paths or all-obvious, both full-fidelity outcomes.)
func explode(t *testing.T, mod int) *core.ProfilerResult {
	t.Helper()
	p := core.NewPipeline("explode", explosionSrc(mod))
	p.NoOpt = true
	s, err := p.Stage()
	if err != nil {
		t.Fatal(err)
	}
	pr, err := s.Profile("PP", instr.PP())
	if err != nil {
		t.Fatal(err)
	}
	if pr.Run.Ret != s.Base.Ret {
		t.Fatal("degraded profiling changed the program result")
	}
	return pr
}

func TestDegradedModeLadder(t *testing.T) {
	// Balanced diamonds: TPP's local criterion cannot prune a 50/50
	// arm, so the routine drops to the bottom rung and runs
	// uninstrumented on the edge profile alone.
	pr := explode(t, 2)
	if got := pr.Modes["blow"]; got != core.ModeEdgeOnly {
		t.Errorf("balanced blow mode = %v, want edge-only", got)
	}
	if pr.Degraded() != 1 {
		t.Errorf("Degraded() = %d, want 1", pr.Degraded())
	}
	if got := pr.ModeSummary(); got != "edge-only:1" {
		t.Errorf("ModeSummary() = %q, want edge-only:1", got)
	}

	// Biased diamonds: the rare arms fall under the local cold
	// criterion, so the TPP retry tames the path space — one rung
	// down, still path-profiled.
	pr = explode(t, 32)
	if got := pr.Modes["blow"]; got != core.ModeTPP {
		t.Errorf("biased blow mode = %v, want tpp", got)
	}
	if got := pr.ModeSummary(); got != "tpp:1" {
		t.Errorf("ModeSummary() = %q, want tpp:1", got)
	}
	if got := pr.Modes["main"]; got != core.ModeFull {
		t.Errorf("main mode = %v, want full", got)
	}
}

func TestModeFullOnHealthyProgram(t *testing.T) {
	s := stage(t)
	pr, err := s.Profile("PPP", instr.PPP())
	if err != nil {
		t.Fatal(err)
	}
	if pr.Degraded() != 0 {
		t.Errorf("healthy program degraded %d routines: %v", pr.Degraded(), pr.Modes)
	}
	if got := pr.ModeSummary(); got != "full" {
		t.Errorf("ModeSummary() = %q, want full", got)
	}
}

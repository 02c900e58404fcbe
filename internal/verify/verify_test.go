package verify_test

import (
	"math/rand"
	"strings"
	"testing"

	"pathprof/internal/cfg"
	"pathprof/internal/cfg/cfgtest"
	"pathprof/internal/instr"
	"pathprof/internal/verify"
)

func build(t testing.TB, g *cfg.Graph, tech instr.Techniques, total int64) *instr.Plan {
	t.Helper()
	p, err := instr.Build(g, tech, instr.DefaultParams(), total)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return p
}

// coldDiamond mirrors the instrumentation tests' triple diamond with
// one nearly-dead first-stage arm: cold edges, free poisoning, and
// four surviving hot paths.
func coldDiamond() *cfg.Graph {
	g := cfg.New("cold3")
	names := []string{"entry", "a", "b", "c", "m", "x", "y", "j", "p", "q", "w", "exit"}
	bs := map[string]*cfg.Block{}
	for _, n := range names {
		bs[n] = g.AddBlock(n)
	}
	g.Entry, g.Exit = bs["entry"], bs["exit"]
	set := func(a, b string, f int64) {
		cfgtest.Connect(g, bs[a], bs[b]).Freq = f
	}
	set("entry", "a", 1000)
	set("a", "b", 10)
	set("a", "c", 990)
	set("b", "m", 10)
	set("c", "m", 990)
	set("m", "x", 500)
	set("m", "y", 500)
	set("x", "j", 500)
	set("y", "j", 500)
	set("j", "p", 400)
	set("j", "q", 600)
	set("p", "w", 400)
	set("q", "w", 600)
	set("w", "exit", 1000)
	g.Calls = 1000
	return g
}

func pppNoLC() instr.Techniques {
	t := instr.PPP()
	t.LowCoverage = false
	return t
}

func TestCheckAcceptsValidPlans(t *testing.T) {
	g := coldDiamond()
	for name, tech := range map[string]instr.Techniques{
		"pp":  instr.PP(),
		"tpp": instr.TPP(),
		"ppp": pppNoLC(),
		"no-fp": func() instr.Techniques {
			x := pppNoLC()
			x.FreePoison = false
			return x
		}(),
	} {
		p := build(t, g, tech, 1000)
		rep := verify.Check(p)
		if !rep.OK() {
			t.Errorf("%s: %s", name, rep)
		}
		if p.Instrumented && rep.HotChecked == 0 {
			t.Errorf("%s: verifier checked no hot paths", name)
		}
	}
}

func TestCheckCountsColdPaths(t *testing.T) {
	p := build(t, coldDiamond(), pppNoLC(), 1000)
	rep := verify.Check(p)
	if !rep.OK() {
		t.Fatalf("valid plan rejected: %s", rep)
	}
	anyCold := false
	for _, c := range p.Cold {
		anyCold = anyCold || c
	}
	if anyCold && rep.ColdChecked == 0 {
		t.Error("plan has cold edges but no cold paths were checked")
	}
}

// mutateOp perturbs one op in place and returns a description.
type mutation struct {
	edge *cfg.DAGEdge
	op   int
	desc string
}

// mutableOps lists every (edge, op) site on a hot edge whose value can
// be perturbed with a guaranteed observable effect: any value change
// on a hot edge shifts some hot path's fired index.
func mutableOps(p *instr.Plan) []mutation {
	var sites []mutation
	for _, e := range p.D.Edges {
		if p.Cold[e.ID] || p.Disc[e.ID] {
			continue
		}
		for i, op := range p.Ops[e.ID] {
			if op.Kind == instr.OpCountR {
				continue // no value to perturb
			}
			sites = append(sites, mutation{edge: e, op: i, desc: e.String() + ":" + op.String()})
		}
	}
	return sites
}

// TestMutationDetected corrupts one increment/assign/count value at a
// time in a valid plan and asserts the verifier reports the corruption
// with a concrete witness path.
func TestMutationDetected(t *testing.T) {
	graphs := map[string]*cfg.Graph{"cold3": coldDiamond()}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 4; i++ {
		g := cfgtest.Random(rng, 6+rng.Intn(10))
		g.Name = "rand" + string(rune('a'+i))
		cfgtest.Profile(g, rng, 300, 200)
		graphs[g.Name] = g
	}

	mutated, detected := 0, 0
	for gname, g := range graphs {
		for _, tech := range []instr.Techniques{instr.PP(), pppNoLC()} {
			p := build(t, g, tech, g.Calls)
			if !p.Instrumented {
				continue
			}
			if rep := verify.Check(p); !rep.OK() {
				t.Fatalf("%s: pristine plan rejected: %s", gname, rep)
			}
			for _, site := range mutableOps(p) {
				orig := p.Ops[site.edge.ID][site.op]
				p.Ops[site.edge.ID][site.op].V = orig.V + 1
				rep := verify.Check(p)
				p.Ops[site.edge.ID][site.op] = orig

				mutated++
				if rep.OK() {
					t.Errorf("%s: corrupting %s went undetected\n%s", gname, site.desc, p.Dump())
					continue
				}
				detected++
				witness := false
				for _, d := range rep.Diags {
					if d.Witness != nil {
						witness = true
						if got, want := d.Routine, p.G.Name; got != want {
							t.Errorf("diagnostic routine %q, want %q", got, want)
						}
					}
				}
				// Placement diagnostics carry the edge instead of a
				// path; every semantic rule must produce a witness.
				if !witness && !onlyPlacement(rep.Diags) {
					t.Errorf("%s: corruption of %s detected without witness: %s", gname, site.desc, rep)
				}

				// Restored plan must verify again.
				if rep := verify.Check(p); !rep.OK() {
					t.Fatalf("%s: plan did not survive mutation round-trip: %s", gname, rep)
				}
			}
		}
	}
	if mutated == 0 {
		t.Fatal("no mutations exercised")
	}
	if detected != mutated {
		t.Errorf("detected %d of %d mutations", detected, mutated)
	}
}

func onlyPlacement(diags []verify.Diagnostic) bool {
	for _, d := range diags {
		if d.Rule != verify.RulePlacement {
			return false
		}
	}
	return len(diags) > 0
}

// TestMutationWitnessIsConcrete checks the shape of one specific
// corruption end to end: bumping a poison assignment below N must
// produce a cold-range diagnostic whose witness crosses the cold edge.
func TestMutationWitnessIsConcrete(t *testing.T) {
	g := coldDiamond()
	p := build(t, g, pppNoLC(), 1000)
	if !p.Instrumented {
		t.Fatalf("not instrumented: %s", p.Dump())
	}
	var coldEdge *cfg.DAGEdge
	for _, e := range p.D.Edges {
		if p.Cold[e.ID] && len(p.Ops[e.ID]) == 1 && p.Ops[e.ID][0].Kind == instr.OpSet {
			coldEdge = e
			break
		}
	}
	if coldEdge == nil {
		t.Fatalf("no poisoned cold edge in plan:\n%s", p.Dump())
	}
	// Redirect the poison into the hot counter range: every execution
	// through the cold edge now corrupts hot counts.
	p.Ops[coldEdge.ID][0].V = 0
	rep := verify.Check(p)
	if rep.OK() {
		t.Fatalf("hot-range poison not detected:\n%s", p.Dump())
	}
	found := false
	for _, d := range rep.Diags {
		if d.Rule != verify.RuleColdRange && d.Rule != verify.RuleOvercount {
			continue
		}
		if d.Witness == nil {
			t.Errorf("cold diagnostic without witness: %s", d)
			continue
		}
		crosses := false
		for _, e := range d.Witness {
			if e == coldEdge {
				crosses = true
			}
		}
		if crosses {
			found = true
		}
	}
	if !found {
		t.Errorf("no witness path crosses the corrupted cold edge: %s", rep)
	}
}

// TestSamplingFallback forces a routine over the enumeration budget
// and checks the oracle switches to reconstruction sampling, still
// accepting the valid plan and still catching a corruption.
func TestSamplingFallback(t *testing.T) {
	// Twelve chained diamonds: 4096 paths, all hot under PP.
	g := cfg.New("deep")
	entry := g.AddBlock("entry")
	prev := entry
	for i := 0; i < 12; i++ {
		a := g.AddBlock("")
		b := g.AddBlock("")
		c := g.AddBlock("")
		j := g.AddBlock("")
		cfgtest.Connect(g, prev, a)
		cfgtest.Connect(g, a, b)
		cfgtest.Connect(g, a, c)
		cfgtest.Connect(g, b, j)
		cfgtest.Connect(g, c, j)
		prev = j
	}
	exit := g.AddBlock("exit")
	cfgtest.Connect(g, prev, exit)
	g.Entry, g.Exit = entry, exit
	rng := rand.New(rand.NewSource(11))
	cfgtest.Profile(g, rng, 500, 400)

	p := build(t, g, instr.PP(), 500)
	if !p.Instrumented || p.N != 4096 {
		t.Fatalf("want 4096 hot paths, got N=%d", p.N)
	}
	rep := verify.Enumerate(p, 100, 64)
	if !rep.OK() {
		t.Fatalf("sampled verification rejected valid plan: %s", rep)
	}
	if !rep.Sampled {
		t.Fatal("expected sampling fallback above budget")
	}
	if rep.HotChecked == 0 || rep.HotChecked > 100 {
		t.Errorf("sampled %d hot paths, want within (0, budget]", rep.HotChecked)
	}

	// A numbering corruption must still surface symbolically even
	// though no exhaustive enumeration happens.
	var victim *cfg.DAGEdge
	for _, e := range p.D.Edges {
		if p.Num.Val[e.ID] != 0 {
			victim = e
			break
		}
	}
	if victim == nil {
		t.Fatal("no nonzero edge value to corrupt")
	}
	p.Num.Val[victim.ID]++
	rep = verify.Enumerate(p, 100, 64)
	p.Num.Val[victim.ID]--
	if rep.OK() {
		t.Error("corrupted numbering accepted in sampling mode")
	} else if !hasRule(rep.Diags, verify.RuleNumbering) {
		t.Errorf("want a numbering diagnostic, got: %s", rep)
	}
}

// TestSamplingIncludesExtremes pins the budget+1 edge case: with N one
// over the enumeration budget, stride sampling alone misses the single
// max-ID path (stride 3 over [0,129) never lands on 128), so the
// sampler must include the first and last paths explicitly.
func TestSamplingIncludesExtremes(t *testing.T) {
	// Seven chained diamonds (128 paths) plus an entry->exit bypass:
	// N = 129 = budget+1.
	g := cfg.New("edgecase")
	entry := g.AddBlock("entry")
	exit := g.AddBlock("exit")
	prev := entry
	for i := 0; i < 7; i++ {
		a := g.AddBlock("")
		b := g.AddBlock("")
		c := g.AddBlock("")
		j := g.AddBlock("")
		cfgtest.Connect(g, prev, a)
		cfgtest.Connect(g, a, b)
		cfgtest.Connect(g, a, c)
		cfgtest.Connect(g, b, j)
		cfgtest.Connect(g, c, j)
		prev = j
	}
	cfgtest.Connect(g, prev, exit)
	cfgtest.Connect(g, entry, exit)
	g.Entry, g.Exit = entry, exit
	rng := rand.New(rand.NewSource(7))
	cfgtest.Profile(g, rng, 500, 400)

	p := build(t, g, instr.PP(), 500)
	if !p.Instrumented || p.N != 129 {
		t.Fatalf("want 129 hot paths, got N=%d", p.N)
	}
	rep := verify.Enumerate(p, 128, 43)
	if !rep.OK() {
		t.Fatalf("sampled verification rejected valid plan: %s", rep)
	}
	if !rep.Sampled {
		t.Fatal("expected sampling fallback at N = budget+1")
	}
	// Stride 129/43 = 3 covers ids 0,3,...,126 (43 paths); the
	// explicit last-path sample adds id 128.
	if rep.HotChecked != 44 {
		t.Errorf("sampled %d hot paths, want 44 (43 strided + the max-ID path)", rep.HotChecked)
	}
}

func hasRule(diags []verify.Diagnostic, r verify.Rule) bool {
	for _, d := range diags {
		if d.Rule == r {
			return true
		}
	}
	return false
}

func TestDiagnosticString(t *testing.T) {
	g := coldDiamond()
	p := build(t, g, pppNoLC(), 1000)
	site := mutableOps(p)
	if len(site) == 0 {
		t.Fatal("no mutable ops")
	}
	p.Ops[site[0].edge.ID][site[0].op].V += 3
	rep := verify.Check(p)
	if rep.OK() {
		t.Fatal("corruption not detected")
	}
	s := rep.String()
	if !strings.Contains(s, "cold3") || !strings.Contains(s, "violation") {
		t.Errorf("report rendering missing routine or verdict: %q", s)
	}
	for _, d := range rep.Diags {
		if d.String() == "" {
			t.Error("empty diagnostic rendering")
		}
	}
}

// TestStructuralDiagnostics covers the shape rules that need no paths.
func TestStructuralDiagnostics(t *testing.T) {
	g := coldDiamond()
	p := build(t, g, pppNoLC(), 1000)

	save := p.TableSize
	p.TableSize = p.N - 1
	if rep := verify.Check(p); rep.OK() {
		t.Error("undersized table accepted")
	}
	p.TableSize = 3*p.N + 1
	if rep := verify.Check(p); rep.OK() || !hasRule(rep.Diags, verify.RulePoisonBound) {
		t.Errorf("table beyond 3N accepted: %v", rep)
	}
	p.TableSize = save

	saveCold := p.Cold
	p.Cold = p.Cold[:len(p.Cold)-1]
	if rep := verify.Check(p); rep.OK() || !hasRule(rep.Diags, verify.RuleShape) {
		t.Error("truncated cold mask accepted")
	}
	p.Cold = saveCold

	if rep := verify.Check(p); !rep.OK() {
		t.Fatalf("restored plan rejected: %s", rep)
	}
}

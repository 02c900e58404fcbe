package verify_test

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"pathprof/internal/cfg"
	"pathprof/internal/cfg/cfgtest"
	"pathprof/internal/instr"
	"pathprof/internal/verify"
)

// buildFuzzGraph decodes the fuzz input into a small structured CFG: a
// chain of regions, each byte choosing a shape (straight line,
// diamond, triangle, while loop, do-while loop). Structured
// construction keeps every generated graph reducible, mirroring
// cfgtest but driven by the fuzzer's bytes instead of a rand source.
func buildFuzzGraph(data []byte) *cfg.Graph {
	g := cfg.New("fuzz")
	entry := g.AddBlock("entry")
	prev := entry
	regions := len(data)
	if regions > 8 {
		regions = 8 // keep path counts enumerable
	}
	for i := 0; i < regions; i++ {
		switch data[i] % 5 {
		case 0: // straight line
			b := g.AddBlock("")
			cfgtest.Connect(g, prev, b)
			prev = b
		case 1: // diamond
			c := g.AddBlock("")
			l := g.AddBlock("")
			r := g.AddBlock("")
			j := g.AddBlock("")
			cfgtest.Connect(g, prev, c)
			cfgtest.Connect(g, c, l)
			cfgtest.Connect(g, c, r)
			cfgtest.Connect(g, l, j)
			cfgtest.Connect(g, r, j)
			prev = j
		case 2: // triangle (if-then)
			c := g.AddBlock("")
			th := g.AddBlock("")
			j := g.AddBlock("")
			cfgtest.Connect(g, prev, c)
			cfgtest.Connect(g, c, th)
			cfgtest.Connect(g, c, j)
			cfgtest.Connect(g, th, j)
			prev = j
		case 3: // while loop with branching body
			h := g.AddBlock("")
			l := g.AddBlock("")
			r := g.AddBlock("")
			tl := g.AddBlock("")
			cfgtest.Connect(g, prev, h)
			cfgtest.Connect(g, h, l)
			cfgtest.Connect(g, h, r)
			cfgtest.Connect(g, l, tl)
			cfgtest.Connect(g, r, tl)
			cfgtest.Connect(g, tl, h) // back edge
			prev = h
		default: // do-while
			b := g.AddBlock("")
			latch := g.AddBlock("")
			cfgtest.Connect(g, prev, b)
			cfgtest.Connect(g, b, latch)
			cfgtest.Connect(g, latch, b) // back edge
			prev = latch
		}
	}
	exit := g.AddBlock("exit")
	cfgtest.Connect(g, prev, exit)
	g.Entry, g.Exit = entry, exit
	return g
}

// fuzzTechniques picks a technique combination from one byte, cycling
// through the paper's configurations and single-toggle ablations.
func fuzzTechniques(b byte) instr.Techniques {
	base := []func() instr.Techniques{
		instr.PP,
		instr.TPP,
		instr.PPP,
		func() instr.Techniques { t := instr.PPP(); t.FreePoison = false; return t },
		func() instr.Techniques { t := instr.PPP(); t.PushFurther = false; return t },
		func() instr.Techniques { t := instr.PPP(); t.SmartNumber = false; return t },
		func() instr.Techniques {
			t := instr.PPP()
			t.SelfAdjust = false
			t.GlobalCold = false
			return t
		},
		func() instr.Techniques { t := instr.PPP(); t.ObviousPaths = false; return t },
	}
	tech := base[int(b)%len(base)]()
	tech.LowCoverage = false // LC skips routines; exercise the planner instead
	return tech
}

// FuzzProofVsEnum differentially tests the all-paths proof against the
// enumeration oracle: on small graphs, where budgeted enumeration is
// exhaustive, the two must reach the same verdict (see crossCheck) —
// on pristine planner output and on deterministically corrupted plans
// alike.
func FuzzProofVsEnum(f *testing.F) {
	f.Add([]byte{1})
	f.Add([]byte{0xFF})       // entry==exit degenerate routine
	f.Add([]byte{0xFF, 0xFF}) // ... with min-cost probe placement
	f.Add([]byte{1, 3, 2})
	f.Add([]byte{2, 1, 2, 0, 5})
	f.Add([]byte{4, 1, 7, 3, 99, 6})
	f.Add([]byte("b00n1ll1B\x7f")) // shifts a cold edge's poison below N
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		var g *cfg.Graph
		if data[0] == 0xFF {
			// The entry block is also the exit, so the virtual
			// exit->entry edge degenerates to a self-loop (the probe
			// planner's MeasuredCalls case).
			g = cfg.New("dgen")
			b0 := g.AddBlock("entry")
			g.Entry, g.Exit = b0, b0
		} else {
			g = buildFuzzGraph(data)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("generated graph invalid: %v", err)
		}
		h := fnv.New64a()
		h.Write(data)
		h.Write([]byte("proof-vs-enum"))
		rng := rand.New(rand.NewSource(int64(h.Sum64())))
		cfgtest.Profile(g, rng, 50+rng.Intn(300), 300)

		tech := fuzzTechniques(data[len(data)-1])
		par := instr.DefaultParams()
		if len(data) > 1 && data[len(data)-2]&1 == 1 {
			par.Placement = instr.PlaceMinCost
		}
		p, err := instr.Build(g, tech, par, g.Calls)
		if err != nil {
			return
		}
		// Half the inputs corrupt one op value so the differential
		// covers invalid plans, not just planner output: a hot op's
		// value, or a cold edge's poison, shifted down by multiples of
		// N toward the hot range.
		if len(data) > 2 && data[len(data)-3]&1 == 1 && p.Instrumented {
			b := data[len(data)-3]
			hot := mutableOps(p)
			if sites := append(hot, poisonOps(p)...); len(sites) > 0 {
				i := int(b) % len(sites)
				delta := 1 + int64(b%3)
				if i >= len(hot) {
					delta *= -p.N
				}
				p.Ops[sites[i].edge.ID][sites[i].op].V += delta
			}
		}

		if _, _, err := crossCheck(p); err != nil {
			t.Fatalf("%v\n%s", err, p.Dump())
		}
	})
}

// poisonOps lists the poison assignment on every cold edge, the values
// the cold half of the proof reasons about.
func poisonOps(p *instr.Plan) []mutation {
	var sites []mutation
	for _, e := range p.D.Edges {
		if !p.Cold[e.ID] {
			continue
		}
		for i, op := range p.Ops[e.ID] {
			if op.Kind == instr.OpSet {
				sites = append(sites, mutation{edge: e, op: i, desc: e.String() + ":" + op.String()})
			}
		}
	}
	return sites
}

// crossCheck verifies p with the all-paths proof and the enumeration
// oracle and returns both verdicts, with an error when they disagree.
// The oracle rejecting a plan the proof accepts is always a soundness
// bug in the proof, which claims to cover all paths; the proof
// rejecting a plan the oracle accepts is a completeness bug when the
// enumeration was exhaustive.
func crossCheck(p *instr.Plan) (*verify.Report, *verify.EnumReport, error) {
	proof := verify.Check(p)
	enum := verify.Enumerate(p, 0, 0)
	switch {
	case !enum.OK() && proof.OK():
		return proof, enum, fmt.Errorf("enumeration rejects but the all-paths proof accepts:\n%s", enum)
	case !proof.OK() && enum.OK() && !enum.Sampled && !enum.Truncated:
		return proof, enum, fmt.Errorf("proof rejects but exhaustive enumeration accepts:\n%s", proof)
	}
	return proof, enum, nil
}

// FuzzVerifyPlan generates random small CFGs, plans instrumentation
// under a fuzzed technique mix, and cross-checks the static verifier
// against VM-level op execution: whenever the verifier passes a plan,
// simulating the ops along every hot path must reproduce the symbolic
// path numbers exactly (one count, at the path's own dense ID).
func FuzzVerifyPlan(f *testing.F) {
	f.Add([]byte{1})
	f.Add([]byte{1, 3, 2})
	f.Add([]byte{0, 1, 2, 3, 4})
	f.Add([]byte{255, 7, 31, 8})
	f.Add([]byte{4, 4, 1, 1, 9, 16, 25, 36, 49})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		g := buildFuzzGraph(data)
		if err := g.Validate(); err != nil {
			t.Fatalf("generated graph invalid: %v", err)
		}
		// Deterministic profile derived from the input bytes.
		h := fnv.New64a()
		h.Write(data)
		rng := rand.New(rand.NewSource(int64(h.Sum64())))
		cfgtest.Profile(g, rng, 50+rng.Intn(300), 300)

		tech := fuzzTechniques(data[len(data)-1])
		par := instr.DefaultParams()
		if len(data) > 1 && data[len(data)-2]&1 == 1 {
			// Half the corpus plans min-cost probe placement, exercising
			// the verifier's probe-set rule (cotree minimality, spanning
			// complement, exact recovery) alongside the path checks.
			par.Placement = instr.PlaceMinCost
		}
		p, err := instr.Build(g, tech, par, g.Calls)
		if err != nil {
			return // e.g. too many paths; not a verifier concern
		}
		rep := verify.Check(p)
		if !rep.OK() {
			t.Fatalf("planner produced a plan the verifier rejects:\n%s\n%s", rep, p.Dump())
		}
		if !p.Instrumented || p.N > 4096 {
			return
		}

		// Verifier-pass => VM semantics agree with symbolic numbers.
		attributed := map[string]bool{}
		for _, a := range p.Attr {
			attributed[a.Path.String()] = true
		}
		ex := make([]bool, len(p.D.Edges))
		for i := range ex {
			ex[i] = p.Cold[i] || p.Disc[i]
		}
		for _, path := range p.D.EnumeratePaths(ex, -1) {
			want, ok := p.Num.PathNumber(path)
			if !ok {
				t.Fatalf("hot path %s rejected by numbering", path)
			}
			idx, counts := p.SimulatePath(path)
			if attributed[path.String()] {
				if counts != 0 {
					t.Fatalf("attributed path %s fired %d counts", path, counts)
				}
				continue
			}
			if counts != 1 || idx != want {
				t.Fatalf("verifier passed but VM simulation of %s fired %d counts at %d, want 1 at %d\n%s",
					path, counts, idx, want, p.Dump())
			}
		}
	})
}

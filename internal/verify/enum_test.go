package verify

import (
	"pathprof/internal/cfg"
	"pathprof/internal/instr"
)

// The enumeration oracle: the verifier the all-paths proof replaced,
// kept as the independent reference the proof is differentially
// tested against. It runs the same structural, attribution, probe,
// numbering and placement checks, replays the guide profile through
// min-cost edge recovery, and then checks the path-sensitive
// invariants by walking concrete paths — exact enumeration within
// the budget, stride sampling of reconstructed paths above it, and a
// budget-truncated walk of the cold-crossing paths.

// Oracle defaults. The budget matches the instrumentation hashing
// threshold, so every array-table routine is enumerated exactly.
const (
	enumBudget  = 4096
	enumSamples = 256
)

// enumReport is the oracle's verdict. Sampled is set when the hot side
// fell back to sampling, Truncated when the cold walk exhausted the
// budget; with neither set the enumeration was exhaustive.
type enumReport struct {
	*Report
	Sampled   bool
	Truncated bool
}

type enumerator struct {
	*checker
	budget    int
	samples   int
	sampled   bool
	truncated bool
}

// enumerate checks p with the oracle. A budget or sample count of
// zero selects the default.
func enumerate(p *instr.Plan, budget, samples int) *enumReport {
	if budget <= 0 {
		budget = enumBudget
	}
	if samples <= 0 {
		samples = enumSamples
	}
	v := &enumerator{
		checker: &checker{p: p, rep: &Report{Routine: p.G.Name}},
		budget:  budget, samples: samples,
	}
	v.check()
	return &enumReport{Report: v.rep, Sampled: v.sampled, Truncated: v.truncated}
}

func (v *enumerator) check() {
	v.structural()
	if len(v.rep.Diags) > 0 {
		return // shape is broken; later checks would index out of range
	}
	v.attribution()
	before := len(v.rep.Diags)
	v.probes()
	if v.p.Placement == instr.PlaceMinCost && len(v.rep.Diags) == before {
		v.replayGuide()
	}
	if v.p.Instrumented {
		v.numbering()
		v.placement()
		v.hotPaths()
		v.coldPaths()
	}
}

// replayGuide runs the guide profile through flow-conservation
// recovery from the probes: a dynamic cross-check of the exact
// recoverability probes() proves statically. Only meaningful when the
// guide profile itself conserves flow.
func (v *enumerator) replayGuide() {
	g := v.p.G
	if err := g.CheckFlow(); err == nil {
		if err := v.p.Probes.CheckExact(g); err != nil {
			v.diag(RuleProbes, nil, nil, "recovery not exact on the guide profile: %v", err)
		}
	}
}

// hotPaths checks the counting behaviour on hot paths: exact
// enumeration within budget, otherwise the sampling fallback over
// reconstructed paths (the symbolic bijection from numbering() already
// covers uniqueness and density).
func (v *enumerator) hotPaths() {
	p := v.p
	if p.N <= int64(v.budget) {
		v.hotExact()
		return
	}
	v.sampled = true
	v.hotSampled()
}

// attrSet indexes attributed paths by their rendering.
func attrSet(p *instr.Plan) map[string]bool {
	m := make(map[string]bool, len(p.Attr))
	for _, a := range p.Attr {
		m[a.Path.String()] = true
	}
	return m
}

func (v *enumerator) hotExact() {
	p := v.p
	attributed := attrSet(p)
	paths := p.D.EnumeratePaths(excluded(p), v.budget+1)
	if int64(len(paths)) != p.N {
		v.diag(RuleNumbering, nil, nil, "enumerated %d hot paths, plan claims N=%d", len(paths), p.N)
		return
	}
	seen := make(map[int64]cfg.Path, len(paths))
	for _, path := range paths {
		v.rep.HotChecked++
		want, ok := p.Num.PathNumber(path)
		if !ok {
			v.diag(RuleNumbering, path, nil, "hot path rejected by the numbering")
			continue
		}
		events, _ := simulate(p, path)
		if attributed[path.String()] {
			if len(events) != 0 {
				v.diag(RuleHotCount, path, nil, "edge-attributed path fires %d counts", len(events))
			}
			// The attribution's recorded number stands in for the fire.
			if prev, dup := seen[want]; dup {
				v.diag(RuleHotID, path, nil, "number %d already used by %s", want, prev)
			}
			seen[want] = path
			continue
		}
		if len(events) != 1 {
			v.diag(RuleHotCount, path, nil, "hot path fires %d counts, want exactly 1", len(events))
			continue
		}
		ev := events[0]
		if ev.index != want {
			v.diag(RuleHotID, path, nil, "hot path counted at %d, want its number %d", ev.index, want)
			continue
		}
		if prev, dup := seen[ev.index]; dup {
			v.diag(RuleHotID, path, nil, "number %d already used by %s", ev.index, prev)
			continue
		}
		seen[ev.index] = path
	}
	// Density: with exactly N paths all distinct in [0, N), every
	// number must appear; report the first gap as a witness-free diag.
	if int64(len(seen)) == p.N {
		return
	}
	for id := int64(0); id < p.N; id++ {
		if _, ok := seen[id]; !ok {
			v.diag(RuleHotID, nil, nil, "no hot path counts at %d: numbering not dense", id)
			return
		}
	}
}

// hotSampled reconstructs a deterministic stride of path numbers and
// checks each reconstructed path fires once at its own number. The
// path-number sum is re-verified against the reconstruction so a bug
// in Reconstruct cannot vouch for itself.
func (v *enumerator) hotSampled() {
	p := v.p
	attributed := attrSet(p)
	stride := p.N / int64(v.samples)
	if stride < 1 {
		stride = 1
	}
	checked := map[int64]bool{}
	sample := func(id int64) {
		if checked[id] {
			return
		}
		checked[id] = true
		path, err := p.Num.Reconstruct(id)
		if err != nil {
			v.diag(RuleNumbering, nil, nil, "cannot reconstruct path %d: %v", id, err)
			return
		}
		if got, ok := p.Num.PathNumber(path); !ok || got != id {
			v.diag(RuleNumbering, path, nil, "reconstructed path sums to %d, want %d", got, id)
			return
		}
		v.rep.HotChecked++
		events, _ := simulate(p, path)
		if attributed[path.String()] {
			if len(events) != 0 {
				v.diag(RuleHotCount, path, nil, "edge-attributed path fires %d counts", len(events))
			}
			return
		}
		if len(events) != 1 {
			v.diag(RuleHotCount, path, nil, "hot path fires %d counts, want exactly 1", len(events))
			return
		}
		if events[0].index != id {
			v.diag(RuleHotID, path, nil, "hot path counted at %d, want its number %d", events[0].index, id)
		}
	}
	// Always include the extreme paths explicitly. The stride loop
	// covers id 0 but misses p.N-1 whenever stride does not divide
	// p.N-1 — notably N = budget+1, where stride sampling alone would
	// silently skip the single max-ID path.
	sample(0)
	sample(p.N - 1)
	for id := int64(0); id < p.N; id += stride {
		sample(id)
	}
}

// coldPaths enumerates executions crossing at least one cold edge
// (pruning pure-hot subtrees, bounded by the budget) and checks the
// poisoning and overcount invariants on each.
func (v *enumerator) coldPaths() {
	p := v.p
	anyCold := false
	for _, c := range p.Cold {
		if c {
			anyCold = true
			break
		}
	}
	if !anyCold {
		return
	}

	// coldAhead[b]: some cold edge is reachable from b over
	// non-disconnected edges. Walking only where a cold edge was
	// crossed or still can be prunes the pure-hot subtrees, so the
	// budget is spent entirely on cold-crossing paths.
	d := p.D
	coldAhead := make([]bool, len(d.G.Blocks))
	for i := len(d.Topo) - 1; i >= 0; i-- {
		b := d.Topo[i]
		for _, e := range d.Out[b.ID] {
			if p.Disc[e.ID] {
				continue
			}
			if p.Cold[e.ID] || coldAhead[e.Dst.ID] {
				coldAhead[b.ID] = true
				break
			}
		}
	}

	var cur cfg.Path
	budget := v.budget
	var walk func(b *cfg.Block, crossed bool) bool
	walk = func(b *cfg.Block, crossed bool) bool {
		if b == d.G.Exit {
			if crossed {
				v.checkColdPath(cur)
				budget--
			}
			return budget > 0
		}
		for _, e := range d.Out[b.ID] {
			if p.Disc[e.ID] {
				continue
			}
			if !crossed && !p.Cold[e.ID] && !coldAhead[e.Dst.ID] {
				continue // would end as a pure hot path
			}
			cur = append(cur, e)
			ok := walk(e.Dst, crossed || p.Cold[e.ID])
			cur = cur[:len(cur)-1]
			if !ok {
				return false
			}
		}
		return true
	}
	if !walk(d.G.Entry, false) {
		v.truncated = true
	}
}

func (v *enumerator) checkColdPath(path cfg.Path) {
	v.rep.ColdChecked++
	v.coldPathDiags(path)
}

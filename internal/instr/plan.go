package instr

import (
	"errors"
	"fmt"

	"pathprof/internal/cfg"
	"pathprof/internal/flow"
	"pathprof/internal/pathnum"
	"pathprof/internal/placement"
	"pathprof/internal/telemetry"
)

// Build plans instrumentation for routine g under the given techniques
// and parameters. totalUnitFlow is the program-wide number of dynamic
// paths from the guiding profile, used by the global cold-edge
// criterion. The edge profile must already be applied to g's edges.
func Build(g *cfg.Graph, tech Techniques, par Params, totalUnitFlow int64) (*Plan, error) {
	d, err := cfg.BuildDAG(g)
	if err != nil {
		return nil, err
	}
	return BuildOn(d, tech, par, totalUnitFlow)
}

// BuildOn is Build on the routine's DAG d, built by the caller from the
// CFG with the edge profile applied. The plan takes d over.
func BuildOn(d *cfg.DAG, tech Techniques, par Params, totalUnitFlow int64) (*Plan, error) {
	g := d.G
	d.RefreshFreqs()
	p := &Plan{
		G: g, D: d, Tech: tech, Par: par,
		Cold:             make([]bool, len(d.Edges)),
		Disc:             make([]bool, len(d.Edges)),
		FinalGlobalRatio: par.GlobalColdRatio,
		Placement:        par.Placement,
	}

	// Min-cost edge-probe placement is planned for every routine,
	// instrumented or not: edge counting is orthogonal to the path
	// pipeline below, and skipped routines still need their edge
	// profiles recovered from sparse probes.
	if par.Placement == PlaceMinCost {
		spec, err := placement.Plan(g)
		if err != nil {
			return nil, err
		}
		p.Probes = spec
		p.emitf(telemetry.EvPlacement, nil, spec.DynamicProbeHits(g),
			"min-cost placement: %d probe(s) on %d edges", spec.NumProbes(), len(g.Edges))
	}

	// LC (Section 4.1): skip routines the edge profile already covers.
	if tech.LowCoverage {
		if cov := flow.Coverage(d, par.Metric); cov >= par.CoverageSkip {
			p.Reason = "low-coverage"
			p.emitf(telemetry.EvLCSkip, nil, flow.TotalFlow(d, par.Metric),
				"edge-profile coverage %.3f >= %.3f: routine not instrumented", cov, par.CoverageSkip)
			return p, nil
		}
	}

	// Cold-edge marking (Sections 3.2 and 4.2).
	if tech.ColdLocal {
		if tech.ColdOnlyToAvoidHash {
			// TPP: remove cold paths only when that turns a hash-table
			// routine into an array routine.
			if d.TotalPaths(nil, par.HashThreshold+1) > par.HashThreshold {
				marked := p.markLocalCold()
				if d.TotalPaths(p.excluded(), par.HashThreshold+1) > par.HashThreshold {
					p.Cold = make([]bool, len(d.Edges)) // still hashes: keep all paths
				} else {
					p.emitColdEdges(telemetry.EvColdLocal, marked, "local criterion (to avoid hashing)")
				}
			}
		} else {
			p.emitColdEdges(telemetry.EvColdLocal, p.markLocalCold(), "local criterion")
		}
	}
	if tech.GlobalCold {
		p.emitColdEdges(telemetry.EvColdGlobal,
			p.markGlobalCold(totalUnitFlow, par.GlobalColdRatio),
			"global criterion (ratio %.4g)", par.GlobalColdRatio)
	}

	// Obvious-loop disconnection (Section 3.2, after cold removal).
	if tech.ObviousPaths {
		p.disconnectObviousLoops()
	}

	order := pathnum.OrderBallLarus
	if tech.SmartNumber {
		order = pathnum.OrderByFreq
	}

	// Number paths; self-adjust the global criterion until the count
	// drops below the hashing threshold (Section 4.3).
	num, err := pathnum.Number(d, p.excluded(), order)
	for {
		tooMany := errors.Is(err, pathnum.ErrTooManyPaths)
		if err != nil && !tooMany {
			return nil, err
		}
		if !tooMany && num.N <= par.HashThreshold {
			break
		}
		if !tech.SelfAdjust || !tech.GlobalCold || p.SACIterations >= par.SelfAdjustMax {
			if tooMany {
				p.Reason = "too-many-paths"
				p.emitf(telemetry.EvSkip, nil, flow.TotalFlow(d, par.Metric),
					"too many paths after %d SAC iteration(s): routine not instrumented", p.SACIterations)
				return p, nil
			}
			break // hash it
		}
		p.SACIterations++
		p.FinalGlobalRatio *= par.SelfAdjustFactor
		newCold := p.markGlobalCold(totalUnitFlow, p.FinalGlobalRatio)
		if par.Trace != nil {
			var lost int64
			for _, e := range newCold {
				lost += e.Freq
			}
			p.emitf(telemetry.EvSACRound, nil, lost,
				"iteration %d: global ratio raised to %.4g, %d edge(s) newly cold",
				p.SACIterations, p.FinalGlobalRatio, len(newCold))
			p.emitColdEdges(telemetry.EvColdGlobal, newCold,
				"self-adjusted criterion (iteration %d)", p.SACIterations)
		}
		num, err = pathnum.Number(d, p.excluded(), order)
	}
	p.Num = num
	p.N = num.N

	if num.N == 0 {
		// Every path crosses a cold or disconnected edge; there is
		// nothing to count and poisoning protects nothing.
		p.Reason = "no-hot-paths"
		p.emitf(telemetry.EvSkip, nil, 0, "no hot paths survive cold removal")
		return p, nil
	}

	// All-obvious routines need no instrumentation: the edge profile
	// reproduces their path profile exactly (Section 3.2, Figure 4).
	if tech.ObviousPaths && num.AllObvious() {
		p.Reason = "all-obvious"
		p.attributeAllPaths()
		p.emitf(telemetry.EvObviousAttr, nil, flow.TotalFlow(d, par.Metric),
			"all-obvious routine: %d path(s) attributed from the edge profile", len(p.Attr))
		return p, nil
	}

	p.Hash = num.N > par.HashThreshold
	if p.Hash {
		p.emitf(telemetry.EvHashTable, nil, 0,
			"N=%d exceeds hash threshold %d: hash-table counters", num.N, par.HashThreshold)
	}
	if tech.SmartNumber && par.Trace != nil {
		var heavy *cfg.DAGEdge
		for _, e := range d.Edges {
			if heavy == nil || e.Freq > heavy.Freq {
				heavy = e
			}
		}
		p.emitf(telemetry.EvSPNOrder, heavy, heavy.Freq,
			"numbering ordered by measured edge frequency")
	}

	// Event counting (Section 3.1): move increments off the predicted
	// hot spanning tree. SPN (Section 4.5) predicts with the measured
	// profile; otherwise static heuristics.
	var w pathnum.Weights
	if tech.SmartNumber {
		w = pathnum.ProfileWeights(d)
	} else {
		w = pathnum.StaticWeights(d)
	}
	inc, chord := pathnum.EventCount(num, w)

	p.place(inc, chord)
	if tech.ObviousPaths {
		if err := p.removeObviousCounts(); err != nil {
			return nil, err
		}
	}
	p.poison()
	p.Instrumented = true
	return p, nil
}

// excluded returns the numbering exclusion set: cold plus disconnected
// edges.
func (p *Plan) excluded() []bool {
	ex := make([]bool, len(p.D.Edges))
	for i := range ex {
		ex[i] = p.Cold[i] || p.Disc[i]
	}
	return ex
}

// markLocalCold applies TPP's local criterion: an edge is cold when
// its frequency is below LocalColdRatio of its source's frequency.
// Blocks that never executed are skipped: the paths reaching them are
// already severed by the cold edges upstream. Returns the newly marked
// edges for decision tracing.
func (p *Plan) markLocalCold() []*cfg.DAGEdge {
	var marked []*cfg.DAGEdge
	for _, e := range p.D.Edges {
		src := p.D.NodeFreq(e.Src)
		if src <= 0 || p.Cold[e.ID] {
			continue
		}
		if float64(e.Freq) < p.Par.LocalColdRatio*float64(src) {
			p.Cold[e.ID] = true
			marked = append(marked, e)
		}
	}
	return marked
}

// markGlobalCold applies PPP's global criterion at the given ratio: an
// edge is cold when its frequency is below ratio * total program unit
// flow. Marking is monotone in ratio, so SAC re-marks on top; only the
// newly marked edges are returned, so each SAC round traces just its
// own damage.
func (p *Plan) markGlobalCold(totalUnitFlow int64, ratio float64) []*cfg.DAGEdge {
	if totalUnitFlow <= 0 {
		return nil
	}
	cut := ratio * float64(totalUnitFlow)
	var marked []*cfg.DAGEdge
	for _, e := range p.D.Edges {
		if p.Cold[e.ID] {
			continue
		}
		if float64(e.Freq) < cut {
			p.Cold[e.ID] = true
			marked = append(marked, e)
		}
	}
	return marked
}

// attributeAllPaths records every hot path of an all-obvious routine
// with its defining edge. The path count of an all-obvious routine is
// bounded by the edge count, so enumeration is cheap.
func (p *Plan) attributeAllPaths() {
	ex := p.excluded()
	paths := p.D.EnumeratePaths(ex, int(p.N)+1)
	for _, path := range paths {
		def := p.Num.DefiningEdge(path)
		if def == nil {
			// Cannot happen for all-obvious routines; guard anyway.
			continue
		}
		num, _ := p.Num.PathNumber(path)
		p.Attr = append(p.Attr, EdgeAttr{Num: num, Path: path, Edge: def})
	}
}

// removeObviousCounts drops constant counter updates: a count[c]++ on
// edge e means e has a unique hot prefix and suffix, i.e. it defines
// the single path numbered c, whose future frequency the edge profile
// already predicts as freq(e) (Section 4.4, Figure 5).
func (p *Plan) removeObviousCounts() error {
	for _, e := range p.D.Edges {
		ops := p.Ops[e.ID]
		if len(ops) != 1 || ops[0].Kind != OpCountC {
			continue
		}
		if p.Num.PathsThrough(e) != 1 {
			continue // defensive: only genuinely obvious paths
		}
		path, err := p.Num.Reconstruct(ops[0].V)
		if err != nil {
			return fmt.Errorf("instr: constant count %d not reconstructible in %s: %w",
				ops[0].V, p.G.Name, err)
		}
		p.Attr = append(p.Attr, EdgeAttr{Num: ops[0].V, Path: path, Edge: e})
		p.Ops[e.ID] = nil
		p.emitf(telemetry.EvObviousAttr, e, e.Freq,
			"obvious path %d: count dropped, attributed from the edge profile", ops[0].V)
	}
	return nil
}

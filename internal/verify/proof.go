package verify

import (
	"fmt"

	"pathprof/internal/cfg"
	"pathprof/internal/dataflow"
	"pathprof/internal/instr"
)

// Hot-domain provenance slots. The hot proof partitions path prefixes
// by fire count: class U has fired no count yet, F1 exactly one, F2
// two or more. U tracks d = r - W (register minus the numbering-value
// sum W of the edges walked so far) and w = W; F1 tracks
// dPost = idx - W, the fired index against the running path number.
// Every transfer is affine per component, so on the acyclic DAG the
// intervals are exact hulls (see package dataflow).
const (
	hotUD uint8 = iota // class U: d = r - W
	hotUW              // class U: W
	hotF1              // class F1: dPost = idx - W
	hotF2              // class F2: reachability flag
)

type hotState struct {
	ud, uw, f1 dataflow.Track
	f2         dataflow.Flag
}

func hotBottom() hotState {
	return hotState{ud: dataflow.EmptyTrack(), uw: dataflow.EmptyTrack(), f1: dataflow.EmptyTrack()}
}

func hotJoin(a, b hotState) hotState {
	return hotState{
		ud: a.ud.Join(b.ud),
		uw: a.uw.Join(b.uw),
		f1: a.f1.Join(b.f1),
		f2: a.f2.Join(b.f2),
	}
}

// hotTransfer pushes the class partition across one hot edge: the
// edge's ops first (a count moves U to F1 and F1 to F2; an assignment
// rewrites U's register), then the edge's numbering value folds into
// the running W of every class.
//
//ppp:dataflow
func (v *checker) hotTransfer(e *cfg.DAGEdge, in hotState) hotState {
	p := v.p
	out := hotState{
		ud: in.ud.Via(e, hotUD),
		uw: in.uw.Via(e, hotUW),
		f1: in.f1.Via(e, hotF1),
		f2: in.f2.Via(e, hotF2),
	}
	for _, op := range p.Ops[e.ID] {
		switch op.Kind {
		case instr.OpInc:
			out.ud = out.ud.Add(op.V)
		case instr.OpSet:
			// r = V, so d = V - W; F1's post-fire drift is unaffected.
			out.ud = out.uw.SubFrom(op.V)
		case instr.OpCountR, instr.OpCountRV, instr.OpCountC:
			var fired dataflow.Track
			switch op.Kind {
			case instr.OpCountR:
				fired = out.ud // idx = r, so idx - W = d
			case instr.OpCountRV:
				fired = out.ud.Add(op.V)
			case instr.OpCountC:
				fired = out.uw.SubFrom(op.V) // idx = V constant
			}
			if out.f1.Reached() {
				out.f2 = out.f2.Join(dataflow.Flag{On: true, P: out.f1.LoP})
			}
			out.f1 = fired
			out.ud, out.uw = dataflow.EmptyTrack(), dataflow.EmptyTrack()
		}
	}
	val := p.Num.Val[e.ID]
	if val != 0 {
		out.ud = out.ud.Add(-val)
		out.uw = out.uw.Add(val)
		out.f1 = out.f1.Add(-val)
	}
	return out
}

// proofHot proves the hot-path counting invariants over all
// non-attributed hot paths at once: the exit state's U class must be
// empty (no path fires zero counts), F2 empty (none fires twice), and
// F1's drift interval exactly [0,0] (every fire lands on the path's
// own number — which numbering() proved unique and dense). Attributed
// paths are proven individually: their defining edge must own exactly
// one hot path, which is then simulated concretely.
//
//ppp:dataflow
func (v *checker) proofHot() {
	p := v.p
	d := p.D
	skip := excluded(p)
	attrNums := make(map[int64]cfg.Path, len(p.Attr))
	for i, a := range p.Attr {
		if len(a.Path) == 0 || a.Edge == nil {
			continue // attribution() already diagnosed the shape
		}
		if !attrLive(p, a.Path) {
			// The path is not in the hot numbering universe:
			// disconnected-loop body attributions cross disconnected
			// dummies by construction, and later cold-marking rounds
			// can strand earlier attributions. Enumeration never meets
			// these paths either; attribution() covers their shape.
			continue
		}
		if through := p.Num.PathsThrough(a.Edge); through != 1 {
			v.diag(RuleAttr, a.Path, a.Edge,
				"attribution %d: defining edge lies on %d hot paths, want exactly 1", i, through)
			continue
		}
		v.proofAttrPath(i, a, attrNums)
		// The defining edge owns exactly one hot path, and the live
		// attributed path crosses it — so it is that path, just proven
		// concretely, and excluding the edge removes exactly it from
		// the all-paths dataflow below.
		skip[a.Edge.ID] = true
	}

	states := dataflow.Forward(d, dataflow.Analysis[hotState]{
		Bottom:   hotBottom,
		Init:     hotState{ud: dataflow.PointTrack(0), uw: dataflow.PointTrack(0), f1: dataflow.EmptyTrack()},
		Join:     hotJoin,
		Transfer: v.hotTransfer,
		Skip:     skip,
		Dead: func(s hotState) bool {
			return !s.ud.Reached() && !s.f1.Reached() && !s.f2.On
		},
	})
	get := func(b int, slot, bound uint8) dataflow.Prov {
		s := states[b]
		switch slot {
		case hotUD:
			return s.ud.Prov(bound)
		case hotUW:
			return s.uw.Prov(bound)
		case hotF1:
			return s.f1.Prov(bound)
		}
		return s.f2.P
	}
	maxW := len(d.Edges) + 1
	x := states[d.G.Exit.ID]
	if x.ud.Reached() {
		w := dataflow.WalkBack(get, d.G.Exit.ID, hotUD, dataflow.BoundLo, maxW)
		v.hotWitness(w, RuleHotCount, "some hot path fires 0 counts, want exactly 1")
	}
	if x.f2.On {
		w := dataflow.WalkBackProv(get, x.f2.P, maxW)
		v.hotWitness(w, RuleHotCount, "some hot path fires at least 2 counts, want exactly 1")
	}
	if x.f1.Reached() && (x.f1.Iv.Lo != 0 || x.f1.Iv.Hi != 0) {
		bound := dataflow.BoundLo
		if x.f1.Iv.Hi != 0 {
			bound = dataflow.BoundHi
		}
		w := dataflow.WalkBack(get, d.G.Exit.ID, hotF1, bound, maxW)
		v.hotWitness(w, RuleHotID, fmt.Sprintf(
			"some hot path fires off its own number (drift %s)", x.f1.Iv))
	}
	if p.N > 0 {
		// Every one of the N hot paths is covered: N - |Attr| by the
		// dataflow, the rest concretely.
		v.rep.HotChecked = int(p.N)
	}
}

// attrLive reports whether an attributed path belongs to the current
// hot numbering universe: a contiguous entry->exit path crossing no
// excluded edge, accepted by the numbering.
func attrLive(p *instr.Plan, path cfg.Path) bool {
	if path[0].Src != p.D.G.Entry || path[len(path)-1].Dst != p.D.G.Exit {
		return false
	}
	for j, e := range path {
		if j > 0 && path[j-1].Dst != e.Src {
			return false
		}
		if p.Cold[e.ID] || p.Disc[e.ID] {
			return false
		}
	}
	_, ok := p.Num.PathNumber(path)
	return ok
}

// proofAttrPath concretely proves one live edge-attributed path: it
// must fire no counts, its recorded number must match the numbering's,
// and it must collide with no other attribution.
func (v *checker) proofAttrPath(i int, a instr.EdgeAttr, attrNums map[int64]cfg.Path) {
	p := v.p
	num, _ := p.Num.PathNumber(a.Path) // ok: attrLive checked
	if events, _ := simulate(p, a.Path); len(events) != 0 {
		v.diag(RuleHotCount, a.Path, nil, "edge-attributed path fires %d counts", len(events))
	}
	if a.Num >= 0 && a.Num != num {
		v.diag(RuleAttr, a.Path, a.Edge,
			"attribution %d records number %d, numbering assigns %d", i, a.Num, num)
	}
	if prev, dup := attrNums[num]; dup {
		v.diag(RuleHotID, a.Path, nil, "number %d already used by %s", num, prev)
		return
	}
	attrNums[num] = a.Path
}

// hotWitness re-derives a hot-path diagnostic from a concrete witness
// path, so the proof's messages match the enumeration oracle's exactly
// and a walked-back path vouches for itself. The abstract finding
// stands as a fallback if the walk-back could not be reconstructed.
func (v *checker) hotWitness(path cfg.Path, rule Rule, abstract string) {
	if len(path) == 0 {
		v.diag(rule, nil, nil, "%s (witness reconstruction failed)", abstract)
		return
	}
	want, ok := v.p.Num.PathNumber(path)
	if !ok {
		v.diag(RuleNumbering, path, nil, "hot path rejected by the numbering")
		return
	}
	events, _ := simulate(v.p, path)
	switch {
	case len(events) != 1:
		v.diag(RuleHotCount, path, nil, "hot path fires %d counts, want exactly 1", len(events))
	case events[0].index != want:
		v.diag(RuleHotID, path, nil, "hot path counted at %d, want its number %d", events[0].index, want)
	default:
		v.diag(rule, path, nil, "%s", abstract)
	}
}

// Cold-domain provenance slots. The cold proof partitions path
// prefixes by poisoning status: class H has crossed no cold edge, CU
// has crossed at least one and its last assignment (if any) was hot,
// CP's last assignment was a cold-edge poison. Each class tracks the
// register r and the overcount ledgers a = unpoisoned events - sets
// and b = events - sets; coldPathDiags' per-path bound
// "unpoisoned <= sets+1 and events <= sets+1" becomes a.Hi <= 1 and
// b.Hi <= 1 at the exit for the cold-crossing classes.
const (
	coldHR uint8 = iota
	coldHA
	coldHB
	coldCUR
	coldCUA
	coldCUB
	coldCPR
	coldCPA
	coldCPB
)

type coldCls struct {
	r, a, b dataflow.Track
}

type coldState struct {
	h, cu, cp coldCls
}

func emptyCls() coldCls {
	return coldCls{r: dataflow.EmptyTrack(), a: dataflow.EmptyTrack(), b: dataflow.EmptyTrack()}
}

func viaCls(c coldCls, e *cfg.DAGEdge, base uint8) coldCls {
	return coldCls{r: c.r.Via(e, base), a: c.a.Via(e, base+1), b: c.b.Via(e, base+2)}
}

func joinCls(x, y coldCls) coldCls {
	return coldCls{r: x.r.Join(y.r), a: x.a.Join(y.a), b: x.b.Join(y.b)}
}

// setCls applies a register assignment to a class: r collapses to the
// point V and one initialization is charged to both ledgers. The new
// r endpoints inherit the b ledger's provenance — b evolves additively
// from the entry, so its chain is a concrete path reaching this state,
// and after the assignment every such path holds the same register.
func setCls(c coldCls, val int64) coldCls {
	if !c.r.Reached() {
		return c
	}
	return coldCls{
		r: dataflow.Track{Iv: dataflow.Point(val), LoP: c.b.LoP, HiP: c.b.LoP},
		a: c.a.Add(-1),
		b: c.b.Add(-1),
	}
}

// coldOb is a deferred fire-time violation: the interval bounds are
// final at transfer time (the source state is solved), but walking the
// witness back needs the finished state array.
type coldOb struct {
	rule     Rule
	prov     dataflow.Prov
	dst      *cfg.Block
	needCold bool // the witness suffix must still cross a cold edge
	abstract string
}

// coldProver carries the gating precomputation shared by the cold
// transfer and the witness resolution.
type coldProver struct {
	v     *checker
	reach []bool // block can complete to the exit over non-disc edges
	ahead []bool // a completion crossing >= 1 cold edge exists
	obs   []coldOb
}

// transfer pushes the three-class partition across one edge: crossing
// a cold edge moves H into CU before the ops run; a cold-edge Set
// poisons everything into CP, a hot Set un-poisons CP back into CU;
// counts emit range obligations and bump the ledgers.
//
//ppp:dataflow
func (cp *coldProver) transfer(e *cfg.DAGEdge, in coldState) coldState {
	p := cp.v.p
	out := coldState{
		h:  viaCls(in.h, e, coldHR),
		cu: viaCls(in.cu, e, coldCUR),
		cp: viaCls(in.cp, e, coldCPR),
	}
	if p.Cold[e.ID] {
		out.cu = joinCls(out.cu, out.h)
		out.h = emptyCls()
	}
	for _, op := range p.Ops[e.ID] {
		switch op.Kind {
		case instr.OpInc:
			out.h.r = out.h.r.Add(op.V)
			out.cu.r = out.cu.r.Add(op.V)
			out.cp.r = out.cp.r.Add(op.V)
		case instr.OpSet:
			if p.Cold[e.ID] {
				m := joinCls(joinCls(setCls(out.h, op.V), setCls(out.cu, op.V)), setCls(out.cp, op.V))
				out.h, out.cu, out.cp = emptyCls(), emptyCls(), m
			} else {
				out.h = setCls(out.h, op.V)
				out.cu = joinCls(setCls(out.cu, op.V), setCls(out.cp, op.V))
				out.cp = emptyCls()
			}
		case instr.OpCountR, instr.OpCountRV, instr.OpCountC:
			cp.fire(e, op, &out)
		}
	}
	return out
}

// fire checks one count op against every reachable class and charges
// the overcount ledgers, mirroring coldPathDiags' per-event checks:
// unpoisoned events must land in [0, N); poisoned events must stay
// negative under check-based poisoning or inside [N, TableSize) under
// free poisoning. Checks are gated on a completion existing (for H, a
// completion that still crosses a cold edge), exactly the paths the
// enumerator would visit.
//
//ppp:dataflow
func (cp *coldProver) fire(e *cfg.DAGEdge, op instr.Op, out *coldState) {
	p := cp.v.p
	idxOf := func(c coldCls) dataflow.Track {
		switch op.Kind {
		case instr.OpCountRV:
			return c.r.Add(op.V)
		case instr.OpCountC:
			if !c.r.Reached() {
				return dataflow.EmptyTrack()
			}
			return dataflow.Track{Iv: dataflow.Point(op.V), LoP: c.b.LoP, HiP: c.b.LoP}
		}
		return c.r
	}
	unpoisoned := func(c coldCls, needCold bool) {
		idx := idxOf(c)
		if !idx.Reached() {
			return
		}
		if idx.Iv.Lo < 0 {
			cp.obs = append(cp.obs, coldOb{
				rule: RuleOvercount, prov: idx.LoP, dst: e.Dst, needCold: needCold,
				abstract: fmt.Sprintf("unpoisoned cold-path count can reach %d outside hot range [0,%d)", idx.Iv.Lo, p.N),
			})
		}
		if idx.Iv.Hi >= p.N {
			cp.obs = append(cp.obs, coldOb{
				rule: RuleOvercount, prov: idx.HiP, dst: e.Dst, needCold: needCold,
				abstract: fmt.Sprintf("unpoisoned cold-path count can reach %d outside hot range [0,%d)", idx.Iv.Hi, p.N),
			})
		}
	}
	if cp.ahead[e.Dst.ID] {
		unpoisoned(out.h, true)
	}
	if cp.reach[e.Dst.ID] {
		unpoisoned(out.cu, false)
		if op.Kind == instr.OpCountC {
			// Constant counts are never poisoned, even in CP.
			unpoisoned(out.cp, false)
		} else if idx := idxOf(out.cp); idx.Reached() {
			if p.PoisonCheck {
				if idx.Iv.Hi >= 0 {
					cp.obs = append(cp.obs, coldOb{
						rule: RuleColdRange, prov: idx.HiP, dst: e.Dst,
						abstract: fmt.Sprintf("check-poisoned count can reach %d, want a negative register", idx.Iv.Hi),
					})
				}
			} else {
				if idx.Iv.Lo < p.N {
					cp.obs = append(cp.obs, coldOb{
						rule: RuleColdRange, prov: idx.LoP, dst: e.Dst,
						abstract: fmt.Sprintf("poisoned count can reach %d below the cold region [%d,%d)", idx.Iv.Lo, p.N, p.TableSize),
					})
				}
				if idx.Iv.Hi >= p.TableSize {
					cp.obs = append(cp.obs, coldOb{
						rule: RuleColdRange, prov: idx.HiP, dst: e.Dst,
						abstract: fmt.Sprintf("poisoned count can reach %d beyond the cold region [%d,%d)", idx.Iv.Hi, p.N, p.TableSize),
					})
				}
			}
		}
	}
	// Ledger charges (independent of the gating: the state flows on).
	out.h.a, out.h.b = out.h.a.Add(1), out.h.b.Add(1)
	out.cu.a, out.cu.b = out.cu.a.Add(1), out.cu.b.Add(1)
	if op.Kind == instr.OpCountC {
		out.cp.a = out.cp.a.Add(1)
	}
	out.cp.b = out.cp.b.Add(1)
}

// proofCold proves the poisoning and overcount invariants over all
// cold-crossing completions at once. Skipping only disconnected edges
// keeps the walked universe identical to the enumeration oracle's.
//
//ppp:dataflow
func (v *checker) proofCold() {
	p := v.p
	d := p.D
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
	skip := make([]bool, len(d.Edges))
	for i := range skip {
		skip[i] = p.Disc[i]
	}
	cpr := &coldProver{v: v, reach: dataflow.ReachExit(d, skip)}
	// ahead[b]: some b->exit completion over non-disc edges crosses at
	// least one cold edge. Gating H-class fires on this matches the
	// enumeration oracle, which only visits paths that end up
	// cold-crossing.
	cpr.ahead = make([]bool, len(d.G.Blocks))
	for i := len(d.Topo) - 1; i >= 0; i-- {
		b := d.Topo[i]
		for _, e := range d.Out[b.ID] {
			if skip[e.ID] {
				continue
			}
			if (p.Cold[e.ID] && cpr.reach[e.Dst.ID]) || cpr.ahead[e.Dst.ID] {
				cpr.ahead[b.ID] = true
				break
			}
		}
	}

	states := dataflow.Forward(d, dataflow.Analysis[coldState]{
		Bottom: func() coldState { return coldState{h: emptyCls(), cu: emptyCls(), cp: emptyCls()} },
		Init: coldState{
			h:  coldCls{r: dataflow.PointTrack(0), a: dataflow.PointTrack(0), b: dataflow.PointTrack(0)},
			cu: emptyCls(),
			cp: emptyCls(),
		},
		Join: func(a, b coldState) coldState {
			return coldState{h: joinCls(a.h, b.h), cu: joinCls(a.cu, b.cu), cp: joinCls(a.cp, b.cp)}
		},
		Transfer: cpr.transfer,
		Skip:     skip,
		Dead: func(s coldState) bool {
			return !s.h.r.Reached() && !s.cu.r.Reached() && !s.cp.r.Reached()
		},
	})
	get := func(b int, slot, bound uint8) dataflow.Prov {
		s := states[b]
		switch slot {
		case coldHR:
			return s.h.r.Prov(bound)
		case coldHA:
			return s.h.a.Prov(bound)
		case coldHB:
			return s.h.b.Prov(bound)
		case coldCUR:
			return s.cu.r.Prov(bound)
		case coldCUA:
			return s.cu.a.Prov(bound)
		case coldCUB:
			return s.cu.b.Prov(bound)
		case coldCPR:
			return s.cp.r.Prov(bound)
		case coldCPA:
			return s.cp.a.Prov(bound)
		}
		return s.cp.b.Prov(bound)
	}
	maxW := len(d.Edges) + 1

	// Resolve fire-time obligations now that the states are final.
	for _, ob := range cpr.obs {
		prefix := dataflow.WalkBackProv(get, ob.prov, maxW)
		witness := cpr.complete(prefix, ob.dst, ob.needCold)
		v.coldWitness(witness, ob.rule, ob.abstract)
	}

	// Exit ledgers for the cold-crossing classes: a > 1 means some
	// path fired more unpoisoned counts than initializations allow,
	// b > 1 the same for all counts.
	exitID := d.G.Exit.ID
	x := states[exitID]
	checkLedger := func(c coldCls, slotA, slotB uint8) {
		if !c.r.Reached() {
			return
		}
		if c.a.Reached() && c.a.Iv.Hi > 1 {
			w := dataflow.WalkBack(get, exitID, slotA, dataflow.BoundHi, maxW)
			v.coldWitness(w, RuleOvercount, fmt.Sprintf(
				"some cold path fires %d more unpoisoned counts than initializations", c.a.Iv.Hi-1))
			return
		}
		if c.b.Reached() && c.b.Iv.Hi > 1 {
			w := dataflow.WalkBack(get, exitID, slotB, dataflow.BoundHi, maxW)
			v.coldWitness(w, RuleOvercount, fmt.Sprintf(
				"some cold path fires %d more counts than initializations", c.b.Iv.Hi-1))
		}
	}
	checkLedger(x.cu, coldCUA, coldCUB)
	checkLedger(x.cp, coldCPA, coldCPB)

	// Every cold-crossing completion is covered by the proof: count
	// them (saturating) for the report.
	all := d.TotalPaths(skip, coldCountSat)
	hotOnly := d.TotalPaths(excluded(p), coldCountSat)
	if diff := all - hotOnly; diff > 0 {
		v.rep.ColdChecked = int(diff)
	}
}

// coldCountSat caps the reported proven-path counts; the proof itself
// never enumerates, this is bookkeeping only.
const coldCountSat = int64(1) << 61

// complete extends a walked-back prefix to the exit over non-disc
// edges, preferring (when required) a continuation that still crosses
// a cold edge, and returns the full witness path (nil if the prefix
// was unreconstructable or no completion exists).
func (cp *coldProver) complete(prefix cfg.Path, from *cfg.Block, needCold bool) cfg.Path {
	if prefix == nil {
		return nil
	}
	p := cp.v.p
	d := p.D
	for _, e := range prefix {
		if p.Cold[e.ID] {
			needCold = false
		}
	}
	b := from
	path := prefix
	for b != d.G.Exit {
		var pick *cfg.DAGEdge
		for _, e := range d.Out[b.ID] {
			if p.Disc[e.ID] {
				continue
			}
			if needCold {
				if (p.Cold[e.ID] && cp.reach[e.Dst.ID]) || cp.ahead[e.Dst.ID] {
					pick = e
					break
				}
			} else if cp.reach[e.Dst.ID] {
				pick = e
				break
			}
		}
		if pick == nil {
			return nil
		}
		if p.Cold[pick.ID] {
			needCold = false
		}
		path = append(path, pick)
		b = pick.Dst
		if len(path) > len(d.Edges)+2 {
			return nil
		}
	}
	return path
}

// coldWitness re-checks a resolved witness path with the concrete
// per-path rules, so the proof's diagnostics carry coldPathDiags'
// exact wording; the abstract finding stands if reconstruction failed
// or the concrete pass (unexpectedly) finds nothing.
func (v *checker) coldWitness(path cfg.Path, rule Rule, abstract string) {
	if len(path) == 0 {
		v.diag(rule, nil, nil, "%s (witness reconstruction failed)", abstract)
		return
	}
	before := len(v.rep.Diags)
	v.coldPathDiags(path)
	if len(v.rep.Diags) == before {
		v.diag(rule, path, nil, "%s", abstract)
	}
}

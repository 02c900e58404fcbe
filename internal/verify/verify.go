// Package verify statically checks instrumentation plans. Given a
// routine's DAG and an instr.Plan, Check proves — without executing
// the VM — that the plan upholds the paper's invariants:
//
//   - hot-path numbers are unique and dense in [0, N) (the Ball-Larus
//     bijection), established symbolically from the per-block
//     prefix-sum structure of the numbering rather than by trusting
//     the numbering code;
//   - counter updates fire exactly once per hot path, at the path's
//     own number, or not at all on edge-attributed obvious paths;
//   - free poisoning confines cold executions to [N, TableSize) with
//     TableSize <= 3N (Section 4.6), and check-based poisoning keeps
//     the register negative;
//   - Push overcounting (Section 4.4) is bounded — at most one count
//     per register initialization — and lands only on valid hot
//     numbers, so it can only overcount, never corrupt;
//   - increments sit only on chords of the event-counting spanning
//     tree, and cold/disconnected edges carry only their sanctioned
//     ops.
//
// Path-sensitive invariants are established by abstract
// interpretation: a forward interval dataflow over the acyclic path
// DAG whose per-component transfers are affine, so one topological
// sweep computes the exact min/max of every tracked quantity over all
// paths at once — a proof covering routines with billions of paths in
// O(E) time (see package dataflow and proof.go). Failed proofs walk
// the lattice back to a concrete witness path, so violations come back
// as structured diagnostics carrying a witness whenever one exists.
// The proof is the only verifier; budgeted path enumeration lives in
// this package's tests as the oracle the proof is differentially
// checked against.
package verify

import (
	"fmt"
	"sort"
	"strings"

	"pathprof/internal/cfg"
	"pathprof/internal/instr"
	"pathprof/internal/pathnum"
	"pathprof/internal/telemetry"
)

// Rule identifies the invariant a diagnostic violates.
type Rule string

const (
	// RuleShape: structural defects — slice lengths, table sizing,
	// missing numbering.
	RuleShape Rule = "shape"
	// RuleNumbering: the numbering is not a dense bijection onto
	// [0, N) (symbolic prefix-sum proof failed).
	RuleNumbering Rule = "numbering"
	// RuleHotCount: a hot path fires the wrong number of counter
	// updates, or an attributed path fires any.
	RuleHotCount Rule = "hot-count"
	// RuleHotID: a hot path fires at an index other than its number,
	// or two hot paths collide, or a number in [0, N) goes unused.
	RuleHotID Rule = "hot-id"
	// RuleColdRange: a poisoned count escapes the cold region
	// [N, TableSize), or is non-negative under check-based poisoning.
	RuleColdRange Rule = "cold-range"
	// RulePoisonBound: the free-poisoning table exceeds the paper's 3N
	// bound, or check-based poisoning grew the table at all.
	RulePoisonBound Rule = "poison-bound"
	// RuleOvercount: a cold execution overcounts more than once per
	// register initialization, or records an invalid hot number.
	RuleOvercount Rule = "overcount"
	// RulePlacement: an increment sits on a spanning-tree edge, or a
	// cold/disconnected edge carries ops it must not.
	RulePlacement Rule = "placement"
	// RuleAttr: an edge attribution is malformed (missing edge, edge
	// not on the path).
	RuleAttr Rule = "attr"
	// RuleProbes: a min-cost edge-probe set is not the minimal
	// spanning-tree complement — wrong size, a probe off the graph, a
	// cycle of unprobed edges — or flow-conservation recovery from the
	// probes fails to reproduce the guide profile exactly.
	RuleProbes Rule = "probe-set"
)

// Diagnostic is one verifier finding.
type Diagnostic struct {
	Rule    Rule
	Routine string
	Message string
	// Witness is a concrete DAG path exhibiting the violation, when
	// the rule is path-sensitive.
	Witness cfg.Path
	// Edge is the offending edge for placement rules.
	Edge *cfg.DAGEdge
}

func (d Diagnostic) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "[%s] %s: %s", d.Rule, d.Routine, d.Message)
	if d.Edge != nil {
		fmt.Fprintf(&sb, " (edge %s)", d.Edge)
	}
	if d.Witness != nil {
		fmt.Fprintf(&sb, " witness: %s", d.Witness)
	}
	return sb.String()
}

// Options carry the verifier's trace sink.
type Options struct {
	// Trace, when set, receives one EvProof event per verified routine
	// (nil-safe).
	Trace *telemetry.Trace
	// TraceUnit labels emitted trace events.
	TraceUnit string
}

// Report is the outcome of verifying one plan.
type Report struct {
	Routine string
	// HotChecked and ColdChecked count the paths the proof covers
	// (saturating).
	HotChecked  int
	ColdChecked int
	Diags       []Diagnostic
}

// OK reports whether no invariant was violated.
func (r *Report) OK() bool { return len(r.Diags) == 0 }

// String renders every diagnostic, one per line.
func (r *Report) String() string {
	if r.OK() {
		return fmt.Sprintf("verify %s: ok (%d hot, %d cold paths checked)",
			r.Routine, r.HotChecked, r.ColdChecked)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "verify %s: %d violation(s)\n", r.Routine, len(r.Diags))
	for _, d := range r.Diags {
		sb.WriteString("  " + d.String() + "\n")
	}
	return sb.String()
}

// Check verifies p with no trace sink.
func Check(p *instr.Plan) *Report { return CheckWith(p, Options{}) }

// CheckWith verifies p. Non-instrumented plans get structural checks
// only; a skipped routine with a well-formed attribution always
// passes.
func CheckWith(p *instr.Plan, opts Options) *Report {
	v := &checker{p: p, opts: opts, rep: &Report{Routine: p.G.Name}}
	v.structural()
	if len(v.rep.Diags) > 0 {
		v.emitProofEvent()
		return v.rep // shape is broken; later checks would index out of range
	}
	v.attribution()
	v.probes()
	if p.Instrumented {
		v.numbering()
		v.placement()
		v.proofHot()
		v.proofCold()
	}
	v.emitProofEvent()
	return v.rep
}

// emitProofEvent records the verdict in the decision trace. The detail
// is deterministic (no timing): traces must byte-compare across runs.
func (v *checker) emitProofEvent() {
	if v.opts.Trace == nil {
		return
	}
	detail := "ok"
	if n := len(v.rep.Diags); n > 0 {
		detail = fmt.Sprintf("%d violation(s)", n)
	}
	v.opts.Trace.Emit(telemetry.Event{
		Unit:    v.opts.TraceUnit,
		Routine: v.p.G.Name,
		Kind:    telemetry.EvProof,
		Flow:    int64(len(v.rep.Diags)),
		Detail:  detail,
	})
}

type checker struct {
	p    *instr.Plan
	opts Options
	rep  *Report
}

func (v *checker) diag(rule Rule, witness cfg.Path, edge *cfg.DAGEdge, format string, args ...interface{}) {
	v.rep.Diags = append(v.rep.Diags, Diagnostic{
		Rule: rule, Routine: v.p.G.Name,
		Message: fmt.Sprintf(format, args...),
		Witness: witness, Edge: edge,
	})
}

// excluded returns the hot-path exclusion set: cold plus disconnected
// edges. This is the single source of truth shared with the
// instrumentation tests.
func excluded(p *instr.Plan) []bool {
	ex := make([]bool, len(p.D.Edges))
	for i := range ex {
		ex[i] = p.Cold[i] || p.Disc[i]
	}
	return ex
}

// structural checks slice shapes and table sizing before anything
// indexes by edge ID.
func (v *checker) structural() {
	p := v.p
	ne := len(p.D.Edges)
	if len(p.Cold) != ne || len(p.Disc) != ne {
		v.diag(RuleShape, nil, nil, "cold/disc masks sized %d/%d, want %d edges",
			len(p.Cold), len(p.Disc), ne)
		return
	}
	if p.Ops != nil && len(p.Ops) != ne {
		v.diag(RuleShape, nil, nil, "ops sized %d, want %d edges", len(p.Ops), ne)
		return
	}
	if !p.Instrumented {
		if p.Reason == "" {
			v.diag(RuleShape, nil, nil, "not instrumented but no reason recorded")
		}
		return
	}
	if p.Num == nil {
		v.diag(RuleShape, nil, nil, "instrumented plan has no numbering")
		return
	}
	if p.N != p.Num.N {
		v.diag(RuleShape, nil, nil, "plan N=%d disagrees with numbering N=%d", p.N, p.Num.N)
	}
	if p.N <= 0 {
		v.diag(RuleShape, nil, nil, "instrumented plan with N=%d", p.N)
	}
	if p.TableSize < p.N {
		v.diag(RuleShape, nil, nil, "table size %d below N=%d", p.TableSize, p.N)
	}
	if p.PoisonCheck && p.TableSize != p.N {
		v.diag(RulePoisonBound, nil, nil,
			"check-based poisoning must not grow the table: size %d, N %d", p.TableSize, p.N)
	}
	if !p.PoisonCheck && p.TableSize > 3*p.N {
		v.diag(RulePoisonBound, nil, nil,
			"free-poisoning table %d exceeds 3N=%d (cold range must fit [N,3N-1])",
			p.TableSize, 3*p.N)
	}
	if p.Ops == nil {
		v.diag(RuleShape, nil, nil, "instrumented plan carries no ops")
	}
}

// attribution checks each edge-attributed path: it must be non-empty,
// name an edge, and the edge must lie on the path.
func (v *checker) attribution() {
	for i, a := range v.p.Attr {
		if len(a.Path) == 0 {
			v.diag(RuleAttr, nil, nil, "attribution %d has empty path", i)
			continue
		}
		if a.Edge == nil {
			v.diag(RuleAttr, a.Path, nil, "attribution %d has no defining edge", i)
			continue
		}
		on := false
		for _, e := range a.Path {
			if e == a.Edge {
				on = true
				break
			}
		}
		if !on {
			v.diag(RuleAttr, a.Path, a.Edge, "attribution %d: defining edge not on path", i)
		}
	}
}

// numbering proves symbolically that edge values form a dense
// bijection from hot paths onto [0, N): path counts are recomputed
// independently, and at every block the non-excluded out-edge values
// must be the prefix sums of their targets' path counts — the
// interval-partition argument of Ball-Larus numbering. No path is
// enumerated.
func (v *checker) numbering() {
	p := v.p
	d := p.D
	ex := excluded(p)

	// Independent path-count recomputation (saturating).
	const sat = int64(1) << 61
	np := make([]int64, len(d.G.Blocks))
	np[d.G.Exit.ID] = 1
	for i := len(d.Topo) - 1; i >= 0; i-- {
		b := d.Topo[i]
		if b == d.G.Exit {
			continue
		}
		var sum int64
		for _, e := range d.Out[b.ID] {
			if ex[e.ID] {
				continue
			}
			sum += np[e.Dst.ID]
			if sum > sat {
				sum = sat
			}
		}
		np[b.ID] = sum
	}
	if np[d.G.Entry.ID] != p.N {
		v.diag(RuleNumbering, nil, nil,
			"recomputed hot path count %d disagrees with plan N=%d", np[d.G.Entry.ID], p.N)
		return
	}

	for _, b := range d.G.Blocks {
		if b == d.G.Exit {
			continue
		}
		edges := make([]*cfg.DAGEdge, 0, len(d.Out[b.ID]))
		for _, e := range d.Out[b.ID] {
			if !ex[e.ID] {
				edges = append(edges, e)
			}
		}
		// Values must be prefix sums in some visit order. Sorting by
		// (value, target path count) reconstructs that order: dead
		// edges (zero paths ahead) tie with the live edge assigned the
		// same value and must come first.
		sort.SliceStable(edges, func(i, j int) bool {
			vi, vj := p.Num.Val[edges[i].ID], p.Num.Val[edges[j].ID]
			if vi != vj {
				return vi < vj
			}
			return np[edges[i].Dst.ID] < np[edges[j].Dst.ID]
		})
		var sum int64
		for _, e := range edges {
			if p.Num.Val[e.ID] != sum {
				v.diag(RuleNumbering, nil, e,
					"edge value %d at %s is not the prefix sum %d of prior path counts: numbers cannot be unique and dense",
					p.Num.Val[e.ID], b, sum)
				return
			}
			sum += np[e.Dst.ID]
			if sum > sat {
				sum = sat
			}
		}
		if sum != np[b.ID] {
			v.diag(RuleNumbering, nil, nil,
				"out-edge path counts at %s sum to %d, want %d", b, sum, np[b.ID])
			return
		}
	}
}

// placement re-derives the event-counting spanning tree from the
// plan's own technique settings and checks that every surviving
// increment is a chord with the derived value, and that excluded edges
// carry only their sanctioned ops (one poison assignment on cold
// edges, nothing on disconnected edges).
func (v *checker) placement() {
	p := v.p
	var w pathnum.Weights
	if p.Tech.SmartNumber {
		w = pathnum.ProfileWeights(p.D)
	} else {
		w = pathnum.StaticWeights(p.D)
	}
	inc, chord := pathnum.EventCount(p.Num, w)
	for _, e := range p.D.Edges {
		ops := p.Ops[e.ID]
		if p.Disc[e.ID] {
			if len(ops) != 0 {
				v.diag(RulePlacement, nil, e, "disconnected edge carries ops %v", ops)
			}
			continue
		}
		if p.Cold[e.ID] {
			if len(ops) != 1 || ops[0].Kind != instr.OpSet {
				v.diag(RulePlacement, nil, e,
					"cold edge must carry exactly one poisoning assignment, has %v", ops)
			} else if p.PoisonCheck && ops[0].V >= 0 {
				v.diag(RuleColdRange, nil, e,
					"check-based poison value %d is not negative", ops[0].V)
			}
			continue
		}
		for _, op := range ops {
			if op.Kind != instr.OpInc {
				continue
			}
			if !chord[e.ID] {
				v.diag(RulePlacement, nil, e,
					"increment r+=%d on a spanning-tree edge (instrumentation must stay on chords)", op.V)
			} else if op.V != inc[e.ID] {
				v.diag(RulePlacement, nil, e,
					"increment r+=%d disagrees with derived chord increment %d", op.V, inc[e.ID])
			}
		}
	}
}

// probes checks a min-cost placement plan against the CFG itself:
// the probe set must be exactly a spanning-tree complement — E-V+2
// probes (the cycle-space dimension, the provable minimum), each on a
// distinct real edge, with the unprobed edges plus the virtual
// exit->entry edge forming a spanning tree, which makes
// flow-conservation recovery from the probes alone exact. Runs for
// every routine carrying a probe spec, instrumented or not.
func (v *checker) probes() {
	p := v.p
	if p.Placement != instr.PlaceMinCost {
		if p.Probes != nil {
			v.diag(RuleProbes, nil, nil, "probe spec present under %s placement", p.Placement)
		}
		return
	}
	spec := p.Probes
	if spec == nil {
		v.diag(RuleProbes, nil, nil, "min-cost placement without a probe spec")
		return
	}
	g := p.G
	nv, ne := len(g.Blocks), len(g.Edges)
	want := ne - nv + 2
	if g.Entry.ID == g.Exit.ID {
		// The virtual exit->entry edge degenerates to a self-loop: it
		// cannot join the tree, so one more real edge does and one
		// fewer probe is needed (Calls is measured, not recovered).
		want--
	}
	if spec.NumProbes() != want {
		v.diag(RuleProbes, nil, nil,
			"%d probes for %d edges over %d blocks, want the cycle-space minimum %d",
			spec.NumProbes(), ne, nv, want)
		return
	}
	probed := make(map[[2]int]bool, spec.NumProbes())
	for i, pr := range spec.Probes {
		if pr.Index != i {
			v.diag(RuleProbes, nil, nil, "probe %d carries index %d: indices not dense", i, pr.Index)
			return
		}
		if pr.Src < 0 || pr.Src >= nv || pr.Dst < 0 || pr.Dst >= nv ||
			g.FindEdge(g.Blocks[pr.Src], g.Blocks[pr.Dst]) == nil {
			v.diag(RuleProbes, nil, nil, "probe %d sits on %d->%d, not a CFG edge", i, pr.Src, pr.Dst)
			return
		}
		key := [2]int{pr.Src, pr.Dst}
		if probed[key] {
			v.diag(RuleProbes, nil, nil, "duplicate probe on %d->%d", pr.Src, pr.Dst)
			return
		}
		probed[key] = true
	}
	// The unprobed edges plus the virtual exit->entry edge must be a
	// spanning tree: V-1 edges (ensured by the count check above) and
	// no cycle.
	parent := make([]int, nv)
	for i := range parent {
		parent[i] = i
	}
	var find func(x int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	union := func(a, b int) bool {
		ra, rb := find(a), find(b)
		if ra == rb {
			return false
		}
		parent[ra] = rb
		return true
	}
	// Seed the tree with the virtual edge; a no-op self-loop when
	// entry == exit (the unprobed real edges then span on their own).
	comps := nv
	if union(g.Exit.ID, g.Entry.ID) {
		comps--
	}
	for _, e := range g.Edges {
		if probed[[2]int{e.Src.ID, e.Dst.ID}] {
			continue
		}
		if !union(e.Src.ID, e.Dst.ID) {
			v.diag(RuleProbes, nil, nil,
				"unprobed edges form a cycle through %s: its flow is unrecoverable", e)
			return
		}
		comps--
	}
	// Rank argument: the count check above fixed the unprobed set
	// (plus the virtual edge) at V-1 edges, and the union-find proved
	// it acyclic; one component therefore means it is a spanning tree.
	// Flow conservation then determines every tree edge's frequency
	// from the probed chords alone — the cycle space of the augmented
	// graph has dimension E-V+2, so the probe set is both sufficient
	// and minimal. This is a static proof of exact recoverability; no
	// profile needs to be run through the recovery.
	if comps != 1 {
		v.diag(RuleProbes, nil, nil,
			"unprobed edges leave the graph in %d components: flow on the cut edges is unrecoverable", comps)
	}
}

// event is one counter update observed while abstractly executing a
// plan along a path.
type event struct {
	index    int64
	poisoned bool // the last assignment came from a cold edge
}

// simulate abstractly executes the plan's ops along a DAG path. sets
// counts register initializations, used for the overcount bound.
func simulate(p *instr.Plan, path cfg.Path) (events []event, sets int) {
	var r int64
	poisoned := false
	for _, e := range path {
		for _, op := range p.Ops[e.ID] {
			switch op.Kind {
			case instr.OpInc:
				r += op.V
			case instr.OpSet:
				r = op.V
				poisoned = p.Cold[e.ID]
				sets++
			case instr.OpCountR:
				events = append(events, event{r, poisoned})
			case instr.OpCountRV:
				events = append(events, event{r + op.V, poisoned})
			case instr.OpCountC:
				events = append(events, event{op.V, false})
			}
		}
	}
	return events, sets
}

// coldPathDiags runs the concrete per-path poisoning and overcount
// checks, emitting diagnostics only. The proof's witness resolution
// re-derives its wording from a walked-back path, and the enumeration
// oracle in this package's tests applies it to every cold path.
func (v *checker) coldPathDiags(path cfg.Path) {
	p := v.p
	events, sets := simulate(p, path)
	unpoisoned := 0
	for _, ev := range events {
		if !ev.poisoned {
			// A deliberate Push overcount or constant count: it may
			// only bump a valid hot number (overcounting, never
			// corruption outside [0, N)).
			if ev.index < 0 || ev.index >= p.N {
				witness := append(cfg.Path(nil), path...)
				v.diag(RuleOvercount, witness, nil,
					"unpoisoned cold-path count at %d outside hot range [0,%d)", ev.index, p.N)
			}
			unpoisoned++
			continue
		}
		if p.PoisonCheck {
			if ev.index >= 0 {
				witness := append(cfg.Path(nil), path...)
				v.diag(RuleColdRange, witness, nil,
					"check-poisoned count at %d, want a negative register", ev.index)
			}
			continue
		}
		if ev.index < p.N || ev.index >= p.TableSize {
			witness := append(cfg.Path(nil), path...)
			v.diag(RuleColdRange, witness, nil,
				"poisoned count at %d escapes the cold region [%d,%d)", ev.index, p.N, p.TableSize)
		}
	}
	// Bounded overcounting: every unpoisoned fire needs its own
	// register initialization; a path with s assignments can fire at
	// most s+1 times in total.
	if unpoisoned > sets+1 || len(events) > sets+1 {
		witness := append(cfg.Path(nil), path...)
		v.diag(RuleOvercount, witness, nil,
			"cold path fires %d counts (%d unpoisoned) with only %d initializations",
			len(events), unpoisoned, sets)
	}
}

// CheckAll verifies every plan in a routine map and returns all
// diagnostics, in routine-name order. The bool reports overall
// success.
func CheckAll(plans map[string]*instr.Plan, opts Options) ([]Diagnostic, bool) {
	names := make([]string, 0, len(plans))
	for n := range plans {
		names = append(names, n)
	}
	sort.Strings(names)
	var diags []Diagnostic
	for _, n := range names {
		rep := CheckWith(plans[n], opts)
		diags = append(diags, rep.Diags...)
	}
	return diags, len(diags) == 0
}

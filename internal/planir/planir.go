// Package planir is the pure-data instrumentation-plan IR: everything
// an executor needs to run a routine's path-profiling instrumentation
// — per-DAG-edge op streams, the lowered per-transition op streams
// (back-edge exit/entry dummy fusion already applied), the hot-ID
// counter-table shape, and the free-poisoning cold range — decoupled
// from the planner that produced it.
//
// The planner (internal/instr) builds plans against live cfg.DAG
// structures; planir.FromPlan lowers one into a Routine, a closed value
// of slices and scalars with a canonical binary encoding. The VM
// engine, the threaded-code compiler (internal/vm/compile), and the
// static verifier all consume this one artifact instead of
// re-deriving the lowering from planner internals, so a plan that
// round-trips through the codec executes identically to the original.
package planir

import (
	"fmt"
	"math"
)

// OpKind enumerates the instrumentation operations, mirroring
// instr.OpKind value-for-value (the codec depends on the numbering).
type OpKind uint8

const (
	// OpInc adds V to the path register: r += V.
	OpInc OpKind = iota
	// OpSet assigns V to the path register: r = V.
	OpSet
	// OpCountR increments the counter indexed by the path register.
	OpCountR
	// OpCountRV increments the counter at a register offset: r+V.
	OpCountRV
	// OpCountC increments the counter at constant index V.
	OpCountC
)

func (k OpKind) String() string {
	switch k {
	case OpInc:
		return "r+="
	case OpSet:
		return "r="
	case OpCountR:
		return "count[r]++"
	case OpCountRV:
		return "count[r+v]++"
	case OpCountC:
		return "count[c]++"
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// IsCount reports whether the op updates a counter (as opposed to the
// path register).
func (k OpKind) IsCount() bool { return k >= OpCountR }

// Op is one instrumentation operation.
type Op struct {
	Kind OpKind
	V    int64
}

// EdgeKind mirrors cfg.DAGEdgeKind for the per-edge op table.
type EdgeKind uint8

const (
	// Real is an original (non-back) CFG edge.
	Real EdgeKind = iota
	// EntryDummy stands for path starts at a loop header.
	EntryDummy
	// ExitDummy stands for path ends at a loop back edge.
	ExitDummy
)

// NegPoison is the poison value of check-based poisoning (free
// poisoning off); mirrors instr.NegPoison.
const NegPoison = math.MinInt64 / 4

// Edge is one DAG edge's slice of the plan: its place in the DAG and
// the op stream the planner assigned to it.
type Edge struct {
	ID       int32
	Src, Dst int32 // CFG block IDs
	Kind     EdgeKind
	Cold     bool // poisoned edge
	Disc     bool // disconnected obvious-loop dummy: carries no ops
	Ops      []Op
}

// Transition is the executable lowering of one CFG edge: the op stream
// an executor runs when control flows src -> dst. For back edges the
// stream is the exit-dummy ops followed by the entry-dummy ops (the
// path truncation fusion both executors would otherwise each apply).
type Transition struct {
	Src, Dst int32
	Back     bool
	Ops      []Op
}

// Attr records a path estimated from the edge profile instead of
// counted: path number Num (or -1) is attributed the frequency of DAG
// edge EdgeID.
type Attr struct {
	Num    int64
	EdgeID int32
}

// Placement mirrors instr.Placement: how edge-counter probes are
// placed when a run instruments edges.
type Placement uint8

const (
	// PlaceSpanning: a counter on every CFG transition.
	PlaceSpanning Placement = iota
	// PlaceMinCost: counters only on the cotree chords listed in
	// Probes; all other edge counts are recovered from flow
	// conservation after the run.
	PlaceMinCost
)

// EdgeProbe is one min-cost probe site: executions of the CFG
// transition Src->Dst bump dense counter Index.
type EdgeProbe struct {
	Src, Dst int32
	Index    int32
}

// Routine is the complete instrumentation artifact for one routine.
type Routine struct {
	Name    string
	NBlocks int32

	// Instrumented is false when the routine gets no instrumentation;
	// Reason says why. Non-instrumented routines still carry Attr for
	// all-obvious attribution.
	Instrumented bool
	Reason       string

	// N is the hot path count: hot counters occupy IDs [0, N). Hash
	// selects the 701-slot hash table over an array of TableSize
	// counters; with free poisoning cold executions land in the cold
	// range [N, TableSize). PoisonCheck is set when free poisoning is
	// off and every count op carries an r < 0 check.
	N           int64
	TableSize   int64
	Hash        bool
	PoisonCheck bool

	// Edges lists the DAG edges in ID order with their op streams.
	Edges []Edge
	// Transitions lists the lowered per-CFG-edge op streams, in CFG
	// edge order. Present only on instrumented routines.
	Transitions []Transition
	// Attr lists edge-attributed paths.
	Attr []Attr

	// Placement says how edge counters are placed when a run collects
	// instrumented edge profiles. Under PlaceMinCost, Probes lists the
	// chord probe sites in dense index order; it applies to every
	// routine (instrumented or not), since edge counting is orthogonal
	// to the path pipeline.
	Placement Placement
	Probes    []EdgeProbe
}

// Validate checks the artifact's structural invariants: index ranges,
// the op rules for cold and disconnected edges, count bounds against
// the table shape, and — the invariant executors depend on — that every
// transition's op stream is exactly the declared fusion of its edges'
// streams. It does not re-derive the planner's flow analysis; semantic
// checks against a CFG live in internal/verify.
func (r *Routine) Validate() error {
	if r.NBlocks < 0 {
		return fmt.Errorf("planir %s: negative block count %d", r.Name, r.NBlocks)
	}
	inRange := func(b int32) bool { return b >= 0 && b < r.NBlocks }
	real := map[[2]int32]int{}
	entryDummy := map[int32]int{} // by header block
	exitDummy := map[int32]int{}  // by tail block
	for i := range r.Edges {
		e := &r.Edges[i]
		if int(e.ID) != i {
			return fmt.Errorf("planir %s: edge %d has ID %d", r.Name, i, e.ID)
		}
		if !inRange(e.Src) || !inRange(e.Dst) {
			return fmt.Errorf("planir %s: edge %d endpoints %d->%d outside %d blocks",
				r.Name, i, e.Src, e.Dst, r.NBlocks)
		}
		switch e.Kind {
		case Real:
			real[[2]int32{e.Src, e.Dst}] = i
		case EntryDummy:
			entryDummy[e.Dst] = i
		case ExitDummy:
			exitDummy[e.Src] = i
		default:
			return fmt.Errorf("planir %s: edge %d has kind %d", r.Name, i, e.Kind)
		}
		if err := r.validateOps(e); err != nil {
			return err
		}
	}
	if err := r.validatePlacement(); err != nil {
		return err
	}
	if !r.Instrumented {
		if len(r.Transitions) != 0 {
			return fmt.Errorf("planir %s: %d transitions on a non-instrumented routine",
				r.Name, len(r.Transitions))
		}
		return nil
	}
	if r.N < 1 {
		return fmt.Errorf("planir %s: instrumented with N=%d", r.Name, r.N)
	}
	if r.TableSize < r.N {
		return fmt.Errorf("planir %s: table size %d below hot count %d", r.Name, r.TableSize, r.N)
	}
	for i := range r.Transitions {
		t := &r.Transitions[i]
		if !inRange(t.Src) || !inRange(t.Dst) {
			return fmt.Errorf("planir %s: transition %d endpoints %d->%d outside %d blocks",
				r.Name, i, t.Src, t.Dst, r.NBlocks)
		}
		var want []Op
		if t.Back {
			if xi, ok := exitDummy[t.Src]; ok {
				want = append(want, r.Edges[xi].Ops...)
			}
			if ei, ok := entryDummy[t.Dst]; ok {
				want = append(want, r.Edges[ei].Ops...)
			}
		} else {
			if ri, ok := real[[2]int32{t.Src, t.Dst}]; ok {
				want = r.Edges[ri].Ops
			} else {
				return fmt.Errorf("planir %s: transition %d->%d has no real DAG edge",
					r.Name, t.Src, t.Dst)
			}
		}
		if !opsEqual(t.Ops, want) {
			return fmt.Errorf("planir %s: transition %d->%d ops %v diverge from edge fusion %v",
				r.Name, t.Src, t.Dst, t.Ops, want)
		}
	}
	return nil
}

// validatePlacement checks the min-cost probe list: dense distinct
// indices over in-range, pairwise-distinct transitions, and — when the
// routine carries its CFG edge set as Transitions — that the probes
// are exactly a cotree: the unprobed transitions form an acyclic set
// of NBlocks-2 edges (a spanning tree once the virtual exit->entry
// edge joins its two components), which is what makes every unprobed
// count recoverable from flow conservation. Whether the tree really
// spans entry and exit is a graph-level fact checked in
// internal/verify.
func (r *Routine) validatePlacement() error {
	switch r.Placement {
	case PlaceSpanning:
		if len(r.Probes) != 0 {
			return fmt.Errorf("planir %s: %d probes under spanning placement", r.Name, len(r.Probes))
		}
		return nil
	case PlaceMinCost:
	default:
		return fmt.Errorf("planir %s: placement %d", r.Name, r.Placement)
	}
	probed := make(map[[2]int32]bool, len(r.Probes))
	for i := range r.Probes {
		p := &r.Probes[i]
		if int(p.Index) != i {
			return fmt.Errorf("planir %s: probe %d has index %d", r.Name, i, p.Index)
		}
		if p.Src < 0 || p.Src >= r.NBlocks || p.Dst < 0 || p.Dst >= r.NBlocks {
			return fmt.Errorf("planir %s: probe %d endpoints %d->%d outside %d blocks",
				r.Name, i, p.Src, p.Dst, r.NBlocks)
		}
		key := [2]int32{p.Src, p.Dst}
		if probed[key] {
			return fmt.Errorf("planir %s: duplicate probe on %d->%d", r.Name, p.Src, p.Dst)
		}
		probed[key] = true
	}
	if len(r.Transitions) == 0 {
		return nil
	}
	// With the full transition set in hand, check the cotree property.
	parent := make([]int32, r.NBlocks)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	unprobed := 0
	for i := range r.Transitions {
		t := &r.Transitions[i]
		if probed[[2]int32{t.Src, t.Dst}] {
			continue
		}
		unprobed++
		a, b := find(t.Src), find(t.Dst)
		if a == b {
			return fmt.Errorf("planir %s: unprobed transitions contain a cycle through %d->%d",
				r.Name, t.Src, t.Dst)
		}
		parent[a] = b
	}
	if probes := len(r.Transitions) - unprobed; probes != len(r.Probes) {
		return fmt.Errorf("planir %s: %d probes but %d probed transitions",
			r.Name, len(r.Probes), probes)
	}
	// The unprobed (tree) edges number NBlocks-2 in general — the
	// virtual exit->entry edge, absent from Transitions, is the tree's
	// remaining edge — or NBlocks-1 when entry == exit and the virtual
	// edge degenerates to a self-loop. The routine carries no
	// entry/exit identity, so accept both; the verifier, which has the
	// graph, enforces the exact count.
	if unprobed != int(r.NBlocks)-2 && unprobed != int(r.NBlocks)-1 {
		return fmt.Errorf("planir %s: %d unprobed transitions, want %d or %d (minimal cotree)",
			r.Name, unprobed, r.NBlocks-2, r.NBlocks-1)
	}
	return nil
}

// validateOps checks one edge's op stream against the cold/disc rules
// and the table bounds.
func (r *Routine) validateOps(e *Edge) error {
	if e.Disc && len(e.Ops) > 0 {
		return fmt.Errorf("planir %s: disconnected edge %d carries %d ops", r.Name, e.ID, len(e.Ops))
	}
	if e.Cold && !e.Disc && len(e.Ops) > 0 {
		// A poisoned edge carries exactly one assignment.
		if len(e.Ops) != 1 || e.Ops[0].Kind != OpSet {
			return fmt.Errorf("planir %s: cold edge %d ops %v are not a single poison assignment",
				r.Name, e.ID, e.Ops)
		}
		if r.PoisonCheck && e.Ops[0].V != NegPoison {
			return fmt.Errorf("planir %s: cold edge %d poisons r=%d under check-based poisoning",
				r.Name, e.ID, e.Ops[0].V)
		}
	}
	for _, op := range e.Ops {
		if op.Kind > OpCountC {
			return fmt.Errorf("planir %s: edge %d has op kind %d", r.Name, e.ID, op.Kind)
		}
		if op.Kind == OpCountC && !r.Hash && (op.V < 0 || op.V >= r.TableSize) {
			return fmt.Errorf("planir %s: edge %d constant count index %d outside table [0,%d)",
				r.Name, e.ID, op.V, r.TableSize)
		}
	}
	return nil
}

func opsEqual(a, b []Op) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Program is a set of routines sorted by name — the unit the codec
// serializes and fingerprints.
type Program struct {
	Routines []*Routine
}

// Validate validates every routine and the name ordering.
func (p *Program) Validate() error {
	for i, r := range p.Routines {
		if i > 0 && p.Routines[i-1].Name >= r.Name {
			return fmt.Errorf("planir: routines out of order: %q before %q",
				p.Routines[i-1].Name, r.Name)
		}
		if err := r.Validate(); err != nil {
			return err
		}
	}
	return nil
}

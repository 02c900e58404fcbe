package compile

import (
	"pathprof/internal/cfg"
	"pathprof/internal/planir"
	"pathprof/internal/profile"
	"pathprof/internal/telemetry"
)

// This file is the one definition of what a control-flow transition
// does to a run's profiling state. Translation validation (validate.go)
// replays Stepper.Step over twin containers as the reference every
// compiled transition closure is checked against; the compiled generic
// op lowering (term.go) calls RunOps; and the reference interpreter in
// internal/vm's tests executes Stepper.Step on every transition.
//
// Charges that depend only on the block layout — the terminator's step
// and base cost, the taken penalty, the solo-successor fold — are not
// part of the step: each executor charges them itself, and validation
// derives them from the IR.

// Stepper binds one routine's transition semantics to one run: the
// routine's spec, its run containers, the cost model, the worker's
// telemetry cells (the zero VMCells is the no-op sink), and the path
// hook (nil for none).
type Stepper struct {
	Name  string
	Spec  *FuncSpec
	Run   FuncRun
	Costs *CostModel
	Tel   telemetry.VMCells
	Hook  func(fn string, p cfg.Path)
	// hookPath is the reused buffer a completed path's edges are
	// resolved into for Hook.
	hookPath cfg.Path
}

// Track is one activation's path state: the path register, the
// pending Ball-Larus path as DAG edge IDs, and the path's trie cursor
// in Run.Paths.
type Track struct {
	R    int64
	Path []int32
	Trie int32
}

// Step takes transition s from t's activation: the edge-counter bump,
// the edge-instrumentation charge, the instrumentation ops, and path
// tracking. A back edge completes the pending path at its exit dummy
// and restarts it at the entry dummy. It returns the instrumentation
// cost charged.
//
//ppp:hotpath
func (st *Stepper) Step(s *SuccSpec, t *Track) int64 {
	st.Tel.Transitions.Inc()
	if s.EdgeSlot >= 0 {
		st.Run.Edges.BumpSlot(int(s.EdgeSlot))
	}
	icost := s.InstrCost
	if len(s.Ops) > 0 {
		st.Tel.Ops.Add(int64(len(s.Ops)))
		var c int64
		t.R, c = RunOps(s.Ops, t.R, st.Spec, st.Run.Table, st.Costs, &st.Tel)
		icost += c
	}
	pp := st.Run.Paths
	if pp == nil {
		return icost
	}
	if !s.Back {
		id := int32(s.PathEdge.ID)
		t.Path = append(t.Path, id) //ppp:allow(alloc)
		t.Trie = pp.Step(t.Trie, id)
		return icost
	}
	xd, ed := int32(s.ExitDummy.ID), int32(s.EntryDummy.ID)
	t.Path = append(t.Path, xd) //ppp:allow(alloc)
	t.Trie = pp.Step(t.Trie, xd)
	st.EndPath(t)
	t.Path = append(t.Path[:0], ed) //ppp:allow(alloc)
	t.Trie = pp.Step(0, ed)
	return icost
}

// EndPath records t's pending path as one completed execution, at a
// routine exit or a back edge's exit dummy. A no-op when paths are off.
//
//ppp:hotpath
func (st *Stepper) EndPath(t *Track) {
	pp := st.Run.Paths
	if pp == nil {
		return
	}
	pp.AddAt(t.Trie, t.Path, 1)
	st.Tel.Paths.Inc()
	st.Tel.PathLen.Observe(int64(len(t.Path)))
	if st.Hook != nil {
		st.hookPath = appendEdges(st.hookPath[:0], st.Spec.Edges, t.Path)
		st.Hook(st.Name, st.hookPath)
	}
}

// appendEdges appends the DAG edges of edge IDs ids to dst, resolved
// through the routine's edge table: the path a hook receives, built
// only when one is installed.
func appendEdges(dst cfg.Path, edges []*cfg.DAGEdge, ids []int32) cfg.Path {
	for _, id := range ids {
		dst = append(dst, edges[id])
	}
	return dst
}

// RunOps executes a planir instrumentation op stream from path
// register r against counter table tab, under the routine's counter
// kind and poisoning mode. It returns the final path register and the
// modeled cost. Only the data-dependent counters (table increments,
// cold bumps) are bumped in tel; callers count the ops themselves.
//
//ppp:hotpath
func RunOps(ops []planir.Op, r int64, spec *FuncSpec, tab *profile.Table, costs *CostModel, tel *telemetry.VMCells) (int64, int64) {
	var icost int64
	for _, op := range ops {
		switch op.Kind {
		case planir.OpInc:
			r += op.V
			icost += costs.RegOp
		case planir.OpSet:
			r = op.V
			icost += costs.RegOp
		case planir.OpCountR, planir.OpCountRV, planir.OpCountC:
			idx := r
			switch op.Kind {
			case planir.OpCountRV:
				idx += op.V
			case planir.OpCountC:
				idx = op.V
			}
			if spec.PoisonCheck {
				icost += costs.PoisonCheck
				if r < 0 {
					tab.BumpCold()
					tel.ColdBumps.Inc()
					icost += costs.ColdBump
					continue
				}
			}
			switch {
			case spec.Hash:
				icost += costs.CountHash
			case op.Kind == planir.OpCountC:
				icost += costs.CountConst
			default:
				icost += costs.CountArray
			}
			tab.Inc(idx)
			tel.TableIncs.Inc()
		}
	}
	return r, icost
}

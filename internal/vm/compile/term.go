package compile

import (
	"pathprof/internal/ir"
	"pathprof/internal/planir"
)

// This file lowers terminators: every control-flow transition becomes
// ONE closure fusing successor cost, edge-profile bump,
// instrumentation ops, and path tracking. Two folds carry most of the
// weight:
//
//   - Register-op streams (OpInc/OpSet runs) reduce to a single
//     branchless masked update fr.r = (fr.r & mask) + add, because a
//     Set is (mask=0, add=V), an Inc is (mask=^0, add=V), and two such
//     folds compose into one.
//
//   - A stream with exactly one count op and no poison check reduces
//     to that same fold for the counter index plus one for the final
//     register value, with all op costs summed into a compile-time
//     constant that joins the terminator's base charge.
//
// Streams with a poison check or several counts (rare: check-based
// poisoning ablations) fall back to RunOps, the op stream
// Stepper.Step runs.
//
// The telemetry decision for the folds and the transition closures is
// made here, at compile time: the Telemetry=false build emits them
// with no counter code at all, rather than nil-checking a sink per
// transition. The RunOps fallback is the exception: it always takes
// the Exec's cells, which are the zero (no-op) VMCells when telemetry
// is off.

// succConsts exposes one transition closure's folded compile-time
// constants to the mutation hook below. Fold reports whether the
// closure applies the register fold (Mask, Add); a transition lowered
// to an op closure ignores it.
type succConsts struct {
	Steps, Base, ICost, Mask, Add int64
	EdgeSlot                      int32
	Fold                          bool
}

// testMutateSucc, when non-nil, may corrupt a transition's folded
// constants after they are finalized (including the solo-successor
// charge fold), simulating a miscompiled lowering. Tests use it to
// prove translation validation actually detects broken terminators;
// it must stay nil outside tests.
var testMutateSucc func(fn string, from, to int, c *succConsts)

// lowered is the compiled form of one op stream.
type lowered struct {
	fn        instrFn // non-nil only for count-carrying streams
	mask, add int64   // register fold, applied iff fn == nil
	cost      int64   // compile-time-constant modeled cost
	n         int64   // op count, for the telemetry Ops counter
}

// foldRegs reduces a pure register-op stream to (mask, add).
func foldRegs(ops []planir.Op) (mask, add int64) {
	mask = -1
	for _, op := range ops {
		switch op.Kind {
		case planir.OpInc:
			add += op.V
		case planir.OpSet:
			mask, add = 0, op.V
		}
	}
	return mask, add
}

// composeFold chains two register folds into one (masks are only ever
// ^0 or 0, so the composition stays a single mask/add pair).
func composeFold(m1, a1, m2, a2 int64) (int64, int64) {
	if m2 == 0 {
		return 0, a2
	}
	return m1, a1 + a2
}

// lowerOps compiles an instrumentation op stream.
func (c *comp) lowerOps(ops []planir.Op) lowered {
	costs := &c.opts.Costs
	if len(ops) == 0 {
		return lowered{mask: -1}
	}
	counts := 0
	ci := -1
	for i, op := range ops {
		if op.Kind.IsCount() {
			counts++
			ci = i
		}
	}
	if counts == 0 {
		m, a := foldRegs(ops)
		return lowered{mask: m, add: a, cost: int64(len(ops)) * costs.RegOp, n: int64(len(ops))}
	}
	if counts == 1 && !c.spec.PoisonCheck {
		return c.lowerSingleCount(ops, ci)
	}
	return c.lowerGeneric(ops)
}

// lowerSingleCount specializes the dominant instrumented-transition
// shape: reg ops, one counter bump, reg ops. Everything folds to two
// masked adds and one table increment, with a constant cost.
func (c *comp) lowerSingleCount(ops []planir.Op, ci int) lowered {
	costs := &c.opts.Costs
	op := ops[ci]
	m1, a1 := foldRegs(ops[:ci])
	m2, a2 := foldRegs(ops[ci+1:])
	var im, ia int64
	switch op.Kind {
	case planir.OpCountR:
		im, ia = m1, a1
	case planir.OpCountRV:
		im, ia = m1, a1+op.V
	case planir.OpCountC:
		im, ia = 0, op.V
	}
	fm, fa := composeFold(m1, a1, m2, a2)
	var countCost int64
	switch {
	case c.spec.Hash:
		countCost = costs.CountHash
	case op.Kind == planir.OpCountC:
		countCost = costs.CountConst
	default:
		countCost = costs.CountArray
	}
	lo := lowered{
		cost: int64(len(ops)-1)*costs.RegOp + countCost,
		n:    int64(len(ops)),
	}
	switch {
	case c.spec.Hash && c.opts.Telemetry:
		lo.fn = func(x *Exec, fr *frame) {
			fr.ft.Table.Inc((fr.r & im) + ia)
			x.tel.TableIncs.Inc()
			fr.r = (fr.r & fm) + fa
		}
	case c.spec.Hash:
		lo.fn = func(x *Exec, fr *frame) {
			fr.ft.Table.Inc((fr.r & im) + ia)
			fr.r = (fr.r & fm) + fa
		}
	case c.opts.Telemetry:
		lo.fn = func(x *Exec, fr *frame) {
			fr.ft.Table.IncArray((fr.r & im) + ia)
			x.tel.TableIncs.Inc()
			fr.r = (fr.r & fm) + fa
		}
	default:
		lo.fn = func(x *Exec, fr *frame) {
			fr.ft.Table.IncArray((fr.r & im) + ia)
			fr.r = (fr.r & fm) + fa
		}
	}
	return lo
}

// lowerGeneric runs the shapes the folds don't cover (poison checks,
// multiple counts) through RunOps, Stepper.Step's own op stream.
// Costs are data-dependent here, so they accrue at run time.
func (c *comp) lowerGeneric(ops []planir.Op) lowered {
	stream := append([]planir.Op(nil), ops...)
	spec, costs := c.spec, &c.opts.Costs
	lo := lowered{mask: -1, n: int64(len(ops))}
	lo.fn = func(x *Exec, fr *frame) {
		var ic int64
		fr.r, ic = RunOps(stream, fr.r, spec, fr.ft.Table, costs, &x.tel)
		x.icost += ic
	}
	return lo
}

// compileTerm lowers a block terminator. Jump and Branch compile to
// successor closures that return the next block's code; Ret returns
// nil after stashing the value in x.ret. A non-nil cond (the block's
// extracted trailing comparison) dispatches the branch on the native
// bool.
func (c *comp) compileTerm(fc *fnCode, bi int, t *ir.Term, cond condFn) termFn {
	bc := &fc.blocks[bi]
	switch t.Kind {
	case ir.Ret:
		f := c.mkRet(t)
		bc.arms[0] = f
		return f
	case ir.Jump:
		f := c.mkSucc(fc, bi, &c.spec.Succs[bi][0])
		bc.arms[0] = f
		return f
	case ir.Branch:
		f0 := c.mkSucc(fc, bi, &c.spec.Succs[bi][0])
		f1 := c.mkSucc(fc, bi, &c.spec.Succs[bi][1])
		bc.arms[0], bc.arms[1] = f0, f1
		if cond != nil {
			//ppp:hotpath
			return func(x *Exec, fr *frame) *blockCode {
				if cond(x, fr) {
					return f0(x, fr)
				}
				return f1(x, fr)
			}
		}
		condReg := t.Cond
		//ppp:hotpath
		return func(x *Exec, fr *frame) *blockCode {
			if fr.regs[condReg] != 0 {
				return f0(x, fr)
			}
			return f1(x, fr)
		}
	}
	return nil
}

// mkRet compiles the routine-exit terminator: complete the current
// path (already positioned in the trie by the transitions that built
// it), record the return value, signal the pop with nil.
func (c *comp) mkRet(t *ir.Term) termFn {
	baseC := c.opts.Costs.Term
	retReg := t.Ret
	name, edges := c.fname, c.spec.Edges
	tel, hooks := c.opts.Telemetry, c.opts.PathHooks
	if !c.opts.CollectPaths {
		return func(x *Exec, fr *frame) *blockCode {
			x.steps++
			x.base += baseC
			if retReg >= 0 {
				x.ret = fr.regs[retReg]
			} else {
				x.ret = 0
			}
			return nil
		}
	}
	return func(x *Exec, fr *frame) *blockCode {
		x.steps++
		x.base += baseC
		fr.ft.Paths.AddAt(fr.trie, fr.path, 1)
		if tel {
			x.tel.Paths.Inc()
			x.tel.PathLen.Observe(int64(len(fr.path)))
		}
		if hooks && x.pathHook != nil {
			x.hook(name, edges, fr.path)
		}
		if retReg >= 0 {
			x.ret = fr.regs[retReg]
		} else {
			x.ret = 0
		}
		return nil
	}
}

// mkSucc compiles one control-flow transition into a single closure.
// Constant charges (terminator, taken penalty, edge-instrument
// counter, folded op costs) collapse into two adds; the remaining work
// is the edge-slot bump, the op fold or call, and path tracking. Six
// build-time variants cover paths off / real edge / back edge, each
// with and without telemetry.
//
// The closure returns the successor's blockCode pointer, and when the
// successor is solo its whole segment charge folds into this
// transition's constants — the executor then only compares the budget
// before running the successor's code.
func (c *comp) mkSucc(fc *fnCode, from int, s *SuccSpec) termFn {
	costs := &c.opts.Costs
	baseC := costs.Term
	if s.To != from+1 {
		baseC += costs.TakenPenalty
	}
	lo := c.lowerOps(s.Ops)
	icostC := lo.cost + s.InstrCost
	opsFn, rm, ra, opsN := lo.fn, lo.mask, lo.add, lo.n
	// hasFold skips the identity fold: an uninstrumented transition
	// leaves the path register alone instead of rewriting it.
	hasFold := rm != -1 || ra != 0
	slot := int32(-1)
	if c.opts.CollectEdges {
		slot = s.EdgeSlot
	}
	to := &fc.blocks[s.To]
	stepsC := int64(1)
	if to.solo {
		stepsC += to.segs[0].steps
		baseC += to.segs[0].cost
	}
	if testMutateSucc != nil {
		sc := succConsts{Steps: stepsC, Base: baseC, ICost: icostC, Mask: rm, Add: ra, EdgeSlot: slot, Fold: opsFn == nil}
		testMutateSucc(c.fname, from, s.To, &sc)
		stepsC, baseC, icostC, rm, ra, slot = sc.Steps, sc.Base, sc.ICost, sc.Mask, sc.Add, sc.EdgeSlot
		hasFold = rm != -1 || ra != 0
	}

	if !c.opts.CollectPaths {
		if !c.opts.Telemetry {
			//ppp:hotpath
			return func(x *Exec, fr *frame) *blockCode {
				x.steps += stepsC
				x.base += baseC
				if icostC != 0 {
					x.icost += icostC
				}
				if slot >= 0 {
					fr.ft.Edges.BumpSlot(int(slot))
				}
				if opsFn != nil {
					opsFn(x, fr)
				} else {
					fr.r = (fr.r & rm) + ra
				}
				return to
			}
		}
		//ppp:hotpath
		return func(x *Exec, fr *frame) *blockCode {
			x.tel.Transitions.Inc()
			x.steps += stepsC
			x.base += baseC
			if icostC != 0 {
				x.icost += icostC
			}
			if slot >= 0 {
				fr.ft.Edges.BumpSlot(int(slot))
			}
			if opsN > 0 {
				x.tel.Ops.Add(opsN)
			}
			if opsFn != nil {
				opsFn(x, fr)
			} else if hasFold {
				fr.r = (fr.r & rm) + ra
			}
			return to
		}
	}

	if !s.Back {
		peID := int32(s.PathEdge.ID)
		if !c.opts.Telemetry {
			//ppp:hotpath
			return func(x *Exec, fr *frame) *blockCode {
				x.steps += stepsC
				x.base += baseC
				if icostC != 0 {
					x.icost += icostC
				}
				if slot >= 0 {
					fr.ft.Edges.BumpSlot(int(slot))
				}
				if opsFn != nil {
					opsFn(x, fr)
				} else {
					fr.r = (fr.r & rm) + ra
				}
				fr.path = append(fr.path, peID) //ppp:allow(alloc)
				fr.trie = fr.ft.Paths.Step(fr.trie, peID)
				return to
			}
		}
		//ppp:hotpath
		return func(x *Exec, fr *frame) *blockCode {
			x.tel.Transitions.Inc()
			x.steps += stepsC
			x.base += baseC
			if icostC != 0 {
				x.icost += icostC
			}
			if slot >= 0 {
				fr.ft.Edges.BumpSlot(int(slot))
			}
			if opsN > 0 {
				x.tel.Ops.Add(opsN)
			}
			if opsFn != nil {
				opsFn(x, fr)
			} else if hasFold {
				fr.r = (fr.r & rm) + ra
			}
			fr.path = append(fr.path, peID) //ppp:allow(alloc)
			fr.trie = fr.ft.Paths.Step(fr.trie, peID)
			return to
		}
	}

	// Back edge: finish the path at the exit dummy, restart it at the
	// entry dummy. The trie cursor was advanced edge by edge, so the
	// completed path is one AddAt away.
	xdID, edID := int32(s.ExitDummy.ID), int32(s.EntryDummy.ID)
	name, edges := c.fname, c.spec.Edges
	hooks := c.opts.PathHooks
	// The restart Step always descends from the trie root along the
	// same entry dummy, so its node is memoized per Exec after the
	// first iteration (trie nodes are stable for a binding's lifetime).
	memoID := c.memoN
	c.memoN++
	if !c.opts.Telemetry {
		//ppp:hotpath
		return func(x *Exec, fr *frame) *blockCode {
			x.steps += stepsC
			x.base += baseC
			if icostC != 0 {
				x.icost += icostC
			}
			if slot >= 0 {
				fr.ft.Edges.BumpSlot(int(slot))
			}
			if opsFn != nil {
				opsFn(x, fr)
			} else if hasFold {
				fr.r = (fr.r & rm) + ra
			}
			pp := fr.ft.Paths
			fr.path = append(fr.path, xdID) //ppp:allow(alloc)
			fr.trie = pp.Step(fr.trie, xdID)
			pp.AddAt(fr.trie, fr.path, 1)
			if hooks && x.pathHook != nil {
				x.hook(name, edges, fr.path)
			}
			fr.path = append(fr.path[:0], edID) //ppp:allow(alloc)
			fr.trie = x.rootStep(fr, memoID, edID)
			return to
		}
	}
	//ppp:hotpath
	return func(x *Exec, fr *frame) *blockCode {
		x.tel.Transitions.Inc()
		x.steps += stepsC
		x.base += baseC
		if icostC != 0 {
			x.icost += icostC
		}
		if slot >= 0 {
			fr.ft.Edges.BumpSlot(int(slot))
		}
		if opsN > 0 {
			x.tel.Ops.Add(opsN)
		}
		if opsFn != nil {
			opsFn(x, fr)
		} else if hasFold {
			fr.r = (fr.r & rm) + ra
		}
		pp := fr.ft.Paths
		fr.path = append(fr.path, xdID) //ppp:allow(alloc)
		fr.trie = pp.Step(fr.trie, xdID)
		pp.AddAt(fr.trie, fr.path, 1)
		x.tel.Paths.Inc()
		x.tel.PathLen.Observe(int64(len(fr.path)))
		if hooks && x.pathHook != nil {
			x.hook(name, edges, fr.path)
		}
		fr.path = append(fr.path[:0], edID) //ppp:allow(alloc)
		fr.trie = x.rootStep(fr, memoID, edID)
		return to
	}
}

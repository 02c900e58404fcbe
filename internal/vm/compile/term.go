package compile

import (
	"pathprof/internal/ir"
	"pathprof/internal/planir"
)

// This file lowers terminators: every control-flow transition becomes
// one armConsts, the constants of everything it does, and one method,
// Exec.take, carries out every transition from them. Two folds carry
// most of the weight:
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
// poisoning ablations) are kept as the op stream itself, which take
// hands to RunOps, the op stream Stepper.Step runs.
//
// A metered (Telemetry) run adds each transition's constant VM
// counters in take, behind the branch traces use, so a metered run
// takes the same arms, and forms the same traces, as an unmetered one.
// RunOps counts its data-dependent table increments and cold bumps
// itself, in the Exec's cells, which are the zero (no-op) VMCells when
// telemetry is off.

// testMutateArm, when non-nil, may corrupt a transition's constants
// after they are finalized (including the solo-successor charge fold),
// simulating a miscompiled lowering. Tests use it to prove translation
// validation actually detects broken terminators; it must stay nil
// outside tests.
var testMutateArm func(fn string, from, to int, a *armConsts)

// armConsts is one compiled transition, the arm of a terminator: the
// successor code (nil for a Ret), the step, base and instrumentation
// charges (the solo-successor fold included), the edge slot, the
// instrumentation as a register fold, a single count plus that fold,
// or a RunOps stream, the path tracking, and the VM counters the
// transition adds. take carries it out, traces copy and sum it, and
// translation validation drives take on it.
type armConsts struct {
	to                 *blockCode
	steps, base, icost int64
	// mask and add are the register fold r = (r & mask) + add, the
	// identity (-1, 0) for a RunOps stream.
	mask, add int64
	slot      int32
	// edge is the DAG edge the transition appends to the pending path:
	// the real edge, or a back edge's exit dummy; entry is a back edge's
	// entry dummy, the path it restarts. Both are -1 when paths are off,
	// and on a Ret.
	edge, entry int32
	// ends reports that the transition completes the pending path: a
	// back edge or a Ret, when paths are collected.
	ends bool
	// instr is the micro-op of the instrumentation beyond the register
	// fold, 0 for none: mCount (array) or mCountH (hash table) for a
	// single count of index (r & im) + ia, before the fold; mOps for
	// ops, a stream the folds do not cover, run by RunOps.
	instr  uint8
	im, ia int64
	ops    []planir.Op
	// ret is a Ret's returned register, -1 for none.
	ret int32
	// memo is a back edge's slot in the Exec's root-step memo, under
	// CollectPaths; -1 on any other transition.
	memo int32
	n    tally
}

// tally is the constant part of the VM counters a run of transitions
// adds: transitions, instrumentation ops, and the table increments of
// single-count streams (RunOps counts its own).
type tally struct{ trans, ops, incs int64 }

func (t *tally) add(o *tally) {
	t.trans += o.trans
	t.ops += o.ops
	t.incs += o.incs
}

// count adds n to the Exec's VM counters.
func (x *Exec) count(n *tally) {
	x.tel.Transitions.Add(n.trans)
	x.tel.Ops.Add(n.ops)
	x.tel.TableIncs.Add(n.incs)
}

// take carries out transition a from fr: the charges, the edge-slot
// bump, the instrumentation, and path tracking, completing the pending
// path at a back edge or a Ret. It returns the successor's code, nil
// for a Ret, after stashing the returned value in x.ret.
//
//ppp:hotpath
func (x *Exec) take(fr *frame, a *armConsts) *blockCode {
	x.steps += a.steps
	x.base += a.base
	x.icost += a.icost
	if x.metered {
		x.count(&a.n)
	}
	if a.slot >= 0 {
		fr.ft.Edges.BumpSlot(int(a.slot))
	}
	switch a.instr {
	case mCount:
		fr.ft.Table.IncArray((fr.r & a.im) + a.ia)
	case mCountH:
		fr.ft.Table.Inc((fr.r & a.im) + a.ia)
	case mOps:
		x.runOps(fr, a.ops)
	}
	fr.r = (fr.r & a.mask) + a.add
	if a.edge >= 0 {
		fr.path = append(fr.path, a.edge) //ppp:allow(alloc)
		fr.trie = fr.ft.Paths.Step(fr.trie, a.edge)
	}
	if a.ends {
		x.endPath(fr)
	}
	if a.to == nil {
		x.ret = 0
		if a.ret >= 0 {
			x.ret = fr.regs[a.ret]
		}
		return nil
	}
	if a.entry >= 0 {
		fr.path = append(fr.path[:0], a.entry) //ppp:allow(alloc)
		return x.restart(fr, int(a.memo), a.entry, a.to)
	}
	return a.to
}

// endPath records fr's pending path, whose trie node fr.trie already
// is, as one completed execution: it forms a trace when the path
// reaches TraceAt, and calls the path hook.
func (x *Exec) endPath(fr *frame) {
	if x.metered {
		x.tel.Paths.Inc()
		x.tel.PathLen.Observe(int64(len(fr.path)))
	}
	if fr.ft.Paths.AddAt(fr.trie, fr.path, 1) == TraceAt {
		x.formTrace(fr)
	}
	if x.p.opts.PathHooks && x.pathHook != nil {
		x.hook(fr.fc.name, x.p.specs[fr.fc.fi].Edges, fr.path)
	}
}

// runOps runs op stream ops through RunOps on fr's path register and
// counter table, charging its data-dependent cost.
func (x *Exec) runOps(fr *frame, ops []planir.Op) {
	var ic int64
	fr.r, ic = RunOps(ops, fr.r, &x.p.specs[fr.fc.fi], fr.ft.Table, &x.p.opts.Costs, &x.tel)
	x.icost += ic
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

// lowerOps folds an instrumentation op stream into a: its register
// fold, its single count, or, for the shapes the folds don't cover
// (poison checks, several counts), the stream itself, whose costs are
// data-dependent and accrue at run time.
func (c *comp) lowerOps(ops []planir.Op, a *armConsts) {
	costs := &c.opts.Costs
	a.n.ops = int64(len(ops))
	counts, ci := 0, -1
	for i, op := range ops {
		if op.Kind.IsCount() {
			counts++
			ci = i
		}
	}
	switch {
	case counts == 0:
		a.mask, a.add = foldRegs(ops)
		a.icost += int64(len(ops)) * costs.RegOp
	case counts == 1 && !c.spec.PoisonCheck:
		c.lowerSingleCount(ops, ci, a)
	default:
		a.mask, a.instr, a.ops = -1, mOps, ops
	}
}

// lowerSingleCount specializes the dominant instrumented-transition
// shape: reg ops, one counter bump, reg ops. Everything folds to two
// masked adds and one table increment, with a constant cost.
func (c *comp) lowerSingleCount(ops []planir.Op, ci int, a *armConsts) {
	costs := &c.opts.Costs
	op := ops[ci]
	m1, a1 := foldRegs(ops[:ci])
	m2, a2 := foldRegs(ops[ci+1:])
	switch op.Kind {
	case planir.OpCountR:
		a.im, a.ia = m1, a1
	case planir.OpCountRV:
		a.im, a.ia = m1, a1+op.V
	case planir.OpCountC:
		a.im, a.ia = 0, op.V
	}
	a.mask, a.add = composeFold(m1, a1, m2, a2)
	a.instr = mCount
	countCost := costs.CountArray
	switch {
	case c.spec.Hash:
		a.instr, countCost = mCountH, costs.CountHash
	case op.Kind == planir.OpCountC:
		countCost = costs.CountConst
	}
	a.icost += int64(len(ops)-1)*costs.RegOp + countCost
	a.n.incs = 1
}

// compileArms lowers block bi's terminator t into the block's arms:
// [0] the Jump's or Ret's transition or the Branch's taken one, [1] the
// Branch's else transition.
func (c *comp) compileArms(fc *fnCode, bi int, t *ir.Term) {
	bc := &fc.blocks[bi]
	if t.Kind == ir.Ret {
		bc.arms[0] = armConsts{steps: 1, base: c.opts.Costs.Term, mask: -1, slot: -1, edge: -1, entry: -1,
			ends: c.opts.CollectPaths, ret: int32(t.Ret), memo: -1}
		return
	}
	c.succArm(fc, bi, &c.spec.Succs[bi][0], &bc.arms[0])
	if t.Kind == ir.Branch {
		c.succArm(fc, bi, &c.spec.Succs[bi][1], &bc.arms[1])
	}
}

// succArm lowers transition s out of block from into a. Constant
// charges (terminator, taken penalty, edge-instrument counter, folded
// op costs) collapse into three constants, and when the successor is
// solo its whole segment charge folds into them too: the executor then
// only compares the budget before running the successor's code.
func (c *comp) succArm(fc *fnCode, from int, s *SuccSpec, a *armConsts) {
	costs := &c.opts.Costs
	to := &fc.blocks[s.To]
	*a = armConsts{to: to, steps: 1, base: costs.Term, icost: s.InstrCost, slot: -1, edge: -1, entry: -1,
		memo: -1, n: tally{trans: 1}}
	if s.To != from+1 {
		a.base += costs.TakenPenalty
	}
	if to.solo {
		a.steps += to.segs[0].steps
		a.base += to.segs[0].cost
	}
	c.lowerOps(s.Ops, a)
	if c.opts.CollectEdges {
		a.slot = s.EdgeSlot
	}
	switch {
	case !c.opts.CollectPaths:
	case !s.Back:
		a.edge = int32(s.PathEdge.ID)
	default:
		// A back edge finishes the path at the exit dummy and restarts it
		// at the entry dummy. The restart's trie node is memoized per Exec
		// (trie nodes are stable for a binding's lifetime); the memo slot
		// also holds the Exec's trace head for the header, once a trace
		// from it is installed.
		a.edge, a.entry, a.ends = int32(s.ExitDummy.ID), int32(s.EntryDummy.ID), true
		a.memo = int32(len(c.memoTo))
		c.memoTo = append(c.memoTo, int32(s.To))
	}
	if testMutateArm != nil {
		testMutateArm(c.fname, from, s.To, a)
	}
}

package compile

import (
	"slices"

	"pathprof/internal/cfg"
	"pathprof/internal/planir"
)

// This file turns the run's hot Ball-Larus paths into traces, online,
// the way a dynamic optimizer turns hot paths into straight-line code
// (Dynamo's NET forms a trace once its head has run about 50 times).
// The executor keeps the exact path profile in the routine's path trie
// during every path-collecting run, so it knows each path's count the
// moment the path completes: when AddAt takes a path to TraceAt, the
// Exec compiles that path into a trace, validates it, and installs it.
//
// A trace belongs to one Exec, because it names the trie nodes of the
// Exec's own path profiles. It is keyed by the trie node its path
// starts from, at the path's head block: the root at the routine's
// entry block, or the entry dummy's node at a loop header after a back
// edge. The Exec installs a private copy of the head block carrying
// the trace, reached only from that node: through entryHead when a
// frame is pushed, through the back edge's root-step memo after a
// restart. So a trace runs exactly when the frame's trie cursor equals
// its key, with no lookup on any other transition.
//
// A trace is one micro-op stream (micro.go), run by the loop block
// runs use. For each block of the path it holds the block's own
// lowered run, one exit-if guard per conditional (the block's fused
// compare, or a test of its condition register, exiting when the
// branch leaves the path's direction), then the on-trace transition's
// edge bump, count and register fold, or RunOps stream. Everything
// else a transition does is constant along a path and happens once:
// the step, base and instrumentation charges are summed, the trie
// cursor and pending path are known, and a complete path ends in one
// AddAt (and path hook) on its known node. A guard that exits names its
// step: the trace continues in that guard's side trace, if one has
// formed, or side-exits, restoring the charges, pending path and trie
// cursor of the prefix from per-exit constants and taking the
// off-trace arm, after which dispatch continues normally.
//
// Traces cover solo blocks only: a trace stops before the first block
// with a call, leaving the path open there. The executor enters a trace
// only when the trace's whole step charge fits the budget, so no block
// inside it could have exhausted the budget, and ErrMaxSteps fires
// where it always did. Traces are formed in every path-collecting run,
// metered or not, never at compile time, and each is validated
// (validate.go) before it is installed; a trace that fails is dropped
// and counted (ppp_vm_traces_rejected_total). Validation composes: a
// trace is built only from block runs, guards derived from the blocks'
// branches, and the arm constants that engine validation drove take
// on, so the validator checks each piece against its source and every
// exit's and the end's constants against sums over the path, without
// running the trace.
//
// A metered run counts a trace the way take counts its transitions
// (term.go): every exit and the trace's end carry the summed VM
// counters of the transitions before them, which one branch adds, and
// a trace that completes a path counts it. The same branch counts the
// trace entry and, at an exit, the side exit. Validation checks each
// exit's and the end's counters against the sums of the arms'
// counters, which engine validation checks against the step's.

// TraceAt is the path count at which a path becomes a trace: after
// TraceAt identical replicas on one Exec, every path a replica takes
// has been offered to the trace former, and no later replica forms
// (or allocates for) a trace.
const TraceAt = 64

// tailKind says how a trace ends.
type tailKind uint8

const (
	// tailBack: the path ends at a back edge; the trace completes it
	// and restarts the next one at the loop header.
	tailBack tailKind = iota
	// tailRet: the path ends at the routine's return.
	tailRet
	// tailOpen: the trace stops before a block with a call, mid-path.
	tailOpen
)

// tstep is one block of a trace and the on-trace transition out of it.
// Its micro-ops are a range of the trace's stream: the block's run from
// at, its guard at guard (-1: none), and the transition's effects from
// fx up to the next step's at. The state a side exit restores there is
// in the parallel texit.
type tstep struct {
	// side is the side trace the guard continues in when it exits, once
	// one is formed: the tree's trace of the hot path that leaves here.
	side          *trace
	at, guard, fx int32
	want          bool // the on-trace direction of the guard
}

// guarded reports whether the step's block has a guard of its own.
func (s *tstep) guarded() bool { return s.guard >= 0 }

// tsums is a trace's state before one of its steps, from its root's
// entry: the charges and VM counters of the transitions before it, the
// trie node at its block, and how many edges the trace appended to the
// pending path before it.
type tsums struct {
	steps, base, icost int64
	n                  tally
	node, plen         int32
}

// texit is a step's side-exit state: the state it restores, and the
// off-trace arm, arms[arm] of the step's block off. hits counts the
// side exits a metered run took there.
type texit struct {
	tsums
	off  *blockCode
	arm  int32
	hits int64
}

// trace is one hot path compiled for one Exec.
type trace struct {
	fi     int32
	head   int32 // head block
	prefix int32 // pending-path edges at entry: 0 at the frame entry, 1 (the entry dummy) at a loop header
	// code is the trace's stream and ops the RunOps streams its mOps
	// micro-ops run.
	code  []micro
	ops   [][]planir.Op
	steps []tstep
	exits []texit // steps' side-exit state
	tail  tailKind
	// need, base, icost and n are the trace's charges and VM counters
	// at its end, from its root's entry. budget, on a root trace, is
	// the largest need in its tree: what a trace entry must fit.
	need, base, icost, budget int64
	n                         tally
	// parent is a side trace's parent in its tree, and fork the index
	// of the parent's step whose failing guard continues here. A side
	// trace's path runs its ancestors' steps before their forks, then
	// its own, whose first one has no guard: the fork's guard ran it.
	parent *trace
	fork   int32
	// ids is the path's edge IDs as far as the trace goes: the whole
	// path for tailBack and tailRet, the prefix up to next for tailOpen.
	ids []int32
	end int32 // trie node at the end of ids
	// next is the block after the trace: the loop header (tailBack) or
	// the block with the call (tailOpen).
	next *blockCode
	// tailBack: the restart's entry dummy, its trie node, and the back
	// edge's memo slot.
	restartID, restart, memo int32
	retReg                   int32 // tailRet: the returned register, -1 for none
}

// run executes the trace tree from its root's head, already charged
// and budget-checked by the executor. It returns the next block to
// run, nil for a return.
//
//ppp:hotpath
func (t *trace) run(x *Exec, fr *frame) *blockCode {
	for {
		i := runMicros(x, fr, t.code, t.ops)
		if i < 0 {
			return t.complete(x, fr)
		}
		if side := t.steps[i].side; side != nil {
			t = side
			continue
		}
		return t.exit(x, fr, int(i))
	}
}

// fxEnd is where step i's effects end in t's stream.
func (t *trace) fxEnd(i int) int32 {
	if i+1 < len(t.steps) {
		return t.steps[i+1].at
	}
	return int32(len(t.code))
}

// exit side-exits at step i: the prefix's charges, pending path and
// trie cursor, then the off-trace arm.
func (t *trace) exit(x *Exec, fr *frame, i int) *blockCode {
	e := &t.exits[i]
	x.steps += e.steps
	x.base += e.base
	x.icost += e.icost
	if x.metered {
		x.count(&e.n)
		x.tel.TraceEntries.Inc()
		x.tel.TraceExits.Inc()
		e.hits++
	}
	fr.path = append(fr.path, t.ids[t.prefix:t.prefix+e.plen]...) //ppp:allow(alloc)
	fr.trie = e.node
	return x.take(fr, &e.off.arms[e.arm])
}

// complete finishes a trace that ran to its end.
func (t *trace) complete(x *Exec, fr *frame) *blockCode {
	x.steps += t.need
	x.base += t.base
	x.icost += t.icost
	if x.metered {
		x.count(&t.n)
		x.tel.TraceEntries.Inc()
		if t.tail != tailOpen {
			x.tel.Paths.Inc()
			x.tel.PathLen.Observe(int64(len(t.ids)))
		}
	}
	if t.tail == tailOpen {
		fr.path = append(fr.path, t.ids[t.prefix:]...) //ppp:allow(alloc)
		fr.trie = t.end
		return t.next
	}
	fr.ft.Paths.AddAt(t.end, t.ids, 1)
	if x.p.opts.PathHooks && x.pathHook != nil {
		x.hook(fr.fc.name, x.p.specs[t.fi].Edges, t.ids)
	}
	if t.tail == tailRet {
		if t.retReg >= 0 {
			x.ret = fr.regs[t.retReg]
		} else {
			x.ret = 0
		}
		return nil
	}
	fr.path = append(fr.path[:0], t.restartID) //ppp:allow(alloc)
	fr.trie = t.restart
	if h := x.rootMemo[t.fi][t.memo].head; h != nil {
		return h
	}
	return t.next
}

// traceConsts exposes a formed trace's constants to the mutation hook
// below. Guarded reports that the trace has a guard of its own; a hook
// that sets FlipGuard reverses the first one's direction, and the Exit
// fields are that guard's side-exit state, where SwapArm has the exit
// call the step's on-trace arm. Back reports a tailBack trace, with its
// restart node. Folded reports a register fold in the stream, FoldAdd
// being the last one's add; Counted a count micro-op, CountAdd being
// the first one's index add.
type traceConsts struct {
	Steps, Base, ICost int64
	End                int32
	Guarded, FlipGuard bool

	ExitSteps, ExitBase, ExitICost, ExitTrans int64
	ExitNode, ExitPlen                        int32
	SwapArm                                   bool

	Back    bool
	Restart int32

	Folded  bool
	FoldAdd int64

	Counted  bool
	CountAdd int64
}

// testMutateTrace, when non-nil, may corrupt a trace's constants after
// it is formed and before it is validated, simulating a miscompiled
// trace. Tests use it to prove trace validation rejects broken traces;
// it must stay nil outside tests.
var testMutateTrace func(fn string, head int, c *traceConsts)

// mutate hands t's constants to testMutateTrace and writes back what
// it changed.
func (t *trace) mutate(fc *fnCode) {
	g := slices.IndexFunc(t.steps, func(s tstep) bool { return s.guarded() })
	fold, cnt := -1, -1
	for i := range t.code {
		switch op := t.code[i].op; {
		case op == mFold:
			fold = i
		case (op == mCount || op == mCountH) && cnt < 0:
			cnt = i
		}
	}
	c := traceConsts{Steps: t.need, Base: t.base, ICost: t.icost, End: t.end, Guarded: g >= 0,
		Back: t.tail == tailBack, Restart: t.restart, Folded: fold >= 0, Counted: cnt >= 0}
	if g >= 0 {
		e := &t.exits[g]
		c.ExitSteps, c.ExitBase, c.ExitICost, c.ExitTrans = e.steps, e.base, e.icost, e.n.trans
		c.ExitNode, c.ExitPlen = e.node, e.plen
	}
	if fold >= 0 {
		c.FoldAdd = t.code[fold].imm
	}
	if cnt >= 0 {
		c.CountAdd = t.code[cnt].imm
	}
	testMutateTrace(fc.name, int(t.head), &c)
	t.need, t.base, t.icost, t.end, t.restart = c.Steps, c.Base, c.ICost, c.End, c.Restart
	if fold >= 0 {
		t.code[fold].imm = c.FoldAdd
	}
	if cnt >= 0 {
		t.code[cnt].imm = c.CountAdd
	}
	if g < 0 {
		return
	}
	if c.FlipGuard {
		m := &t.code[t.steps[g].guard]
		m.op = negExit[m.op-mXEq]
	}
	e := &t.exits[g]
	e.steps, e.base, e.icost, e.n.trans = c.ExitSteps, c.ExitBase, c.ExitICost, c.ExitTrans
	e.node, e.plen = c.ExitNode, c.ExitPlen
	if c.SwapArm {
		e.arm = 1 - e.arm
	}
}

// formTrace is called when fr's pending path, ending at fr.trie, has
// just reached TraceAt. With no trace from the path's key yet, it
// compiles the path into one; otherwise it follows the key's trace
// tree along the path and, where the path first leaves it, compiles
// the rest of the path into a side trace of that guard. The new trace
// is validated and installed only if it passes.
func (x *Exec) formTrace(fr *frame) {
	if x.entryHead == nil {
		return
	}
	fc := fr.fc
	t, root := x.buildTrace(fr)
	if t == nil {
		return
	}
	if testMutateTrace != nil {
		t.mutate(fc)
	}
	if x.tv == nil {
		x.tv = NewValidator(x.p)
	}
	if err := x.tv.Trace(t, fr.ft.Paths); err != nil {
		x.tel.TracesRejected.Inc()
		return
	}
	x.tel.TracesFormed.Inc()
	if root != nil {
		t.parent.steps[t.fork].side = t
		root.budget = max(root.budget, t.need)
		return
	}
	t.budget = t.need
	h := new(blockCode)
	*h = fc.blocks[t.head]
	h.trace = t
	if t.prefix == 0 {
		x.entryHead[t.fi] = h
		return
	}
	for m, hdr := range fc.memoTo {
		if hdr == t.head {
			x.rootMemo[t.fi][m].head = h
		}
	}
}

// buildTrace compiles fr's completed pending path into a trace: a root
// trace when its key has none yet (root nil), else a side trace in
// root's tree, forking from the guard where the path leaves the tree.
// It returns
// a nil trace when it cannot or need not build one: the path's head
// block has a call, the path leaves the tree nowhere before its end or
// a call, or a node it needs is missing from the trie (a path counted
// before this Exec's binding, say).
func (x *Exec) buildTrace(fr *frame) (t, root *trace) {
	fc, fi := fr.fc, fr.fc.fi
	spec := &x.p.specs[fi]
	pp := fr.ft.Paths
	ids := fr.path
	t = &trace{fi: fi, head: fc.entry, retReg: -1}
	key := int32(0)
	if len(ids) > 0 && spec.Edges[ids[0]].Kind == cfg.EntryDummy {
		t.head, t.prefix = int32(spec.Edges[ids[0]].Dst.ID), 1
		if key = pp.Child(0, ids[0]); key < 0 {
			return nil, nil
		}
		for m, hdr := range fc.memoTo {
			if h := x.rootMemo[fi][m].head; hdr == t.head && h != nil {
				root = h.trace
			}
		}
	} else if h := x.entryHead[fi]; h != nil {
		root = h.trace
	}
	b, k := t.head, int(t.prefix)
	var from texit // the state the new trace starts from
	from.node = key
	if root != nil {
		// Follow the tree along the path to where it leaves it.
		cur, i := root, 0
		for {
			if i == len(cur.steps) || k == len(ids) {
				return nil, nil
			}
			s := &cur.steps[i]
			arm := pathArm(&spec.Succs[b], ids[k])
			if arm < 0 {
				return nil, nil
			}
			if s.guarded() && s.want != (arm == 0) {
				if s.side == nil {
					from, t.parent, t.fork = cur.exits[i], cur, int32(i)
					break
				}
				cur, i = s.side, 0
			}
			sp := &spec.Succs[b][arm]
			if sp.Back {
				return nil, nil
			}
			b, k, i = int32(sp.To), k+1, i+1
		}
	}
	t.need, t.base, t.icost, t.n = from.steps, from.base, from.icost, from.n
	// The stream is built in the Exec's scratch and copied out once its
	// length is known.
	t.code = x.tcode[:0]
	node := from.node
	// A step per remaining edge, and one for a return.
	t.steps = make([]tstep, 0, len(ids)-k+1)
	t.exits = make([]texit, 0, len(ids)-k+1)
	for ; ; k++ {
		bc, src := &fc.blocks[b], &fc.traceSrc[b]
		if !bc.solo {
			if len(t.steps) == 0 {
				return nil, nil
			}
			t.tail, t.next = tailOpen, bc
			break
		}
		s := tstep{at: int32(len(t.code)), guard: -1}
		e := texit{tsums: tsums{steps: t.need, base: t.base, icost: t.icost, n: t.n, node: node, plen: from.plen + int32(len(t.steps))}}
		// A side trace starts in its fork's block, whose run and guard
		// its parent has run.
		fork := t.parent != nil && len(t.steps) == 0
		if !fork {
			t.code = append(t.code, src.body...)
		}
		if k == len(ids) {
			// The path ended in this block: its return. The block runs
			// as a last step whose transition changes nothing, and the
			// return's charge joins the trace's.
			if bc.arms[0].to != nil {
				return nil, nil
			}
			s.fx = int32(len(t.code))
			t.steps, t.exits = append(t.steps, s), append(t.exits, e)
			t.need += bc.arms[0].steps
			t.base += bc.arms[0].base
			t.tail, t.retReg = tailRet, int32(x.p.prog.Funcs[fi].Blocks[b].Term.Ret)
			break
		}
		arm := pathArm(&spec.Succs[b], ids[k])
		if arm < 0 {
			return nil, nil
		}
		ac := &bc.arms[arm]
		s.want = arm == 0
		if bc.arms[1].to != nil && !fork {
			s.guard = int32(len(t.code))
			t.code = append(t.code, guardAt(src.test, s.want, len(t.steps)))
			e.off, e.arm = bc, int32(1-arm)
		}
		s.fx = int32(len(t.code))
		t.appendEffects(ac)
		t.steps, t.exits = append(t.steps, s), append(t.exits, e)
		t.need += ac.steps
		t.base += ac.base
		t.icost += ac.icost
		t.n.add(&ac.n)
		if node = pp.Child(node, ids[k]); node < 0 {
			return nil, nil
		}
		if sp := &spec.Succs[b][arm]; sp.Back {
			t.restartID = int32(sp.EntryDummy.ID)
			if t.restart = pp.Child(0, t.restartID); t.restart < 0 {
				return nil, nil
			}
			t.tail, t.next, t.memo = tailBack, ac.to, ac.memo
			break
		}
		b = int32(spec.Succs[b][arm].To)
	}
	t.end = node
	x.tcode, t.code = t.code, slices.Clone(t.code)
	n := len(ids)
	if t.tail == tailOpen {
		n = int(t.prefix+from.plen) + len(t.steps)
	}
	t.ids = slices.Clone(ids[:n])
	return t, root
}

// appendEffects appends the micro-ops of transition ac to t's stream:
// its edge bump, its RunOps stream or count, and its register fold
// (none for the identity fold).
func (t *trace) appendEffects(ac *armConsts) {
	if ac.slot >= 0 {
		t.code = append(t.code, micro{op: mBump, b: ac.slot})
	}
	switch ac.instr {
	case mOps:
		t.code = append(t.code, micro{op: mOps, b: int32(len(t.ops))})
		t.ops = append(t.ops, ac.ops)
	case mCount, mCountH:
		t.code = append(t.code, micro{op: ac.instr, imm: ac.ia, m: uint64(ac.im)})
	}
	if ac.mask != -1 || ac.add != 0 {
		t.code = append(t.code, micro{op: mFold, imm: ac.add, m: uint64(ac.mask)})
	}
}

// GuardExits calls visit for every guard of every trace installed on
// x, with the name of its exit-if opcode and the side exits it has
// taken on metered runs.
func (x *Exec) GuardExits(visit func(op string, exits int64)) {
	var walk func(t *trace)
	walk = func(t *trace) {
		for i := range t.steps {
			s := &t.steps[i]
			if s.guarded() {
				visit(exitNames[t.code[s.guard].op-mXEq], t.exits[i].hits)
			}
			if s.side != nil {
				walk(s.side)
			}
		}
	}
	seen := map[*trace]bool{}
	root := func(h *blockCode) {
		if h != nil && !seen[h.trace] {
			seen[h.trace] = true
			walk(h.trace)
		}
	}
	for fi := range x.entryHead {
		root(x.entryHead[fi])
		for _, m := range x.rootMemo[fi] {
			root(m.head)
		}
	}
}

// pathArm returns the arm of a block with successor specs succs whose
// transition appends path edge id: a real edge, or a back edge's exit
// dummy. -1 when neither arm does. (The unused arm of a Jump, and both
// of a Ret, are zero SuccSpecs, which append no edge.)
func pathArm(succs *[2]SuccSpec, id int32) int {
	for a := 0; a < 2; a++ {
		s := &succs[a]
		if !s.Back && s.PathEdge != nil && int32(s.PathEdge.ID) == id ||
			s.Back && s.ExitDummy != nil && int32(s.ExitDummy.ID) == id {
			return a
		}
	}
	return -1
}

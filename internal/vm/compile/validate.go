package compile

// Translation validation: prove, per block pair, that the compiled
// threaded code has the same observable effect as the specification it
// was lowered from. The compiled form is aggressively fused — op
// streams fold to masked adds, constant costs collapse into one
// addition, solo successors' charges migrate into their predecessors'
// terminators — so instead of trusting the folds, Validate replays
// every retained transition closure (blockCode.arms) against a
// reference interpretation built ONLY from the inputs: the ir.Func
// terminator, the SuccSpec, and the planir op stream. Both sides run
// over twin profile containers and the complete observable state is
// compared after every probe:
//
//   - path register (the fold target)
//   - step, base-cost, and instrumentation-cost deltas, with the
//     solo-successor charge derived independently from the IR (a
//     call-free successor of n instructions folds n steps and
//     n*Instr cost into the transition)
//   - returned successor identity (pointer into the function's blocks)
//   - counter-table state (array or hash), including poison-check
//     cold bumps, drops, and lost counts
//   - edge-profile counts over every canonical slot
//   - path-tracking effects: trie cursor, pending path, recorded
//     totals, and path-hook invocations
//
// Probe register values cover zero, small positives that distinguish
// mask from add, a value outside small table ranges, and negatives
// (including deep poison) that exercise the check-based cold path.
//
// Deliberately NOT validated, because the reference would have to
// mirror the implementation rather than the spec: segment register
// semantics (micro-op lowering, dead-store elimination), fused branch
// condition closures, and global/array effects of block bodies. Those
// stay covered by the dense-vs-compiled differential tests and fuzzing
// (vm package); validation owns the terminator lowering, where every
// instrumentation effect of the Bond–McKinley plans lives.
//
// What IS proven statically per function, before any probes: segment
// charges resum to the interpreter's per-instruction accounting
// (sum of seg.steps == len(instrs), sum of seg.cost == len(instrs) *
// Instr + calls*Call), the solo flag and budget-check gate match the
// call-free criterion, the entry precharge matches the entry block,
// and every live terminator arm was compiled.

import (
	"fmt"
	"math"
	"slices"

	"pathprof/internal/cfg"
	"pathprof/internal/ir"
	"pathprof/internal/planir"
	"pathprof/internal/profile"
)

// ValidationError reports one divergence between a compiled transition
// and its specification, naming the block pair and the probe register
// value that exposed it.
type ValidationError struct {
	Routine string
	From    int
	To      int // -1 for a Ret arm
	Arm     int // 0: Jump/Ret/taken, 1: Branch else; -1: static check
	Field   string
	Probe   int64
	Got     int64
	Want    int64
}

func (e *ValidationError) Error() string {
	if e.Arm < 0 {
		return fmt.Sprintf("compile: validate %s: block %d: %s: got %d, want %d",
			e.Routine, e.From, e.Field, e.Got, e.Want)
	}
	return fmt.Sprintf("compile: validate %s: block %d->%d arm %d: %s diverges at probe r=%d: got %d, want %d",
		e.Routine, e.From, e.To, e.Arm, e.Field, e.Probe, e.Got, e.Want)
}

// vProbes are the path-register values every arm is driven with:
// 0 and 1 separate mask from add, 5 and 97 catch swapped constants and
// out-of-range table indices (the twin tables are vTableSize wide),
// -3 and the deep NegPoison value exercise check-based poisoning and
// index wraparound.
var vProbes = []int64{0, 1, 5, 97, -3, math.MinInt64 / 4}

// vTableSize shapes the twin counter tables: small enough that probe
// 97 exercises the out-of-range Drops path on array tables.
const vTableSize = 64

// Validate proves every compiled routine equivalent to its spec;
// the first divergence is returned as a *ValidationError.
func Validate(p *Program) error {
	v := NewValidator(p)
	for fi := range p.fns {
		if err := v.Func(fi); err != nil {
			return err
		}
	}
	return nil
}

// staticCheck proves the per-block compiled structure against the IR:
// segment charge conservation, the solo criterion, the entry
// precharge, and arm presence.
func staticCheck(p *Program, fi int) error {
	f := p.prog.Funcs[fi]
	fc := &p.fns[fi]
	costs := &p.opts.Costs
	serr := func(bi int, field string, got, want int64) error {
		return &ValidationError{Routine: f.Name, From: bi, To: -1, Arm: -1, Field: field, Got: got, Want: want}
	}
	if len(fc.blocks) != len(f.Blocks) {
		return serr(-1, "block-count", int64(len(fc.blocks)), int64(len(f.Blocks)))
	}
	for bi := range f.Blocks {
		b := f.Blocks[bi]
		bc := &fc.blocks[bi]
		var steps, cost, calls int64
		for i := range bc.segs {
			steps += bc.segs[i].steps
			cost += bc.segs[i].cost
			if bc.segs[i].call != nil {
				calls++
			}
		}
		var wantCalls int64
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.Call {
				wantCalls++
			}
		}
		n := int64(len(b.Instrs))
		if steps != n {
			return serr(bi, "segment-steps", steps, n)
		}
		if want := n*costs.Instr + wantCalls*costs.Call; cost != want {
			return serr(bi, "segment-cost", cost, want)
		}
		if calls != wantCalls {
			return serr(bi, "segment-calls", calls, wantCalls)
		}
		solo := !hasCall(b.Instrs)
		if bc.solo != solo {
			return serr(bi, "solo", b2i(bc.solo), b2i(solo))
		}
		if solo && bc.check != (n > 0) {
			return serr(bi, "solo-check", b2i(bc.check), b2i(n > 0))
		}
		wantArms := 1
		if b.Term.Kind == ir.Branch {
			wantArms = 2
		}
		for k := 0; k < 2; k++ {
			has := bc.arms[k] != nil
			if has != (k < wantArms) {
				return serr(bi, fmt.Sprintf("arm[%d]", k), b2i(has), b2i(k < wantArms))
			}
		}
	}
	var wantES, wantEC int64
	if eb := f.Blocks[f.Entry]; !hasCall(eb.Instrs) {
		wantES = int64(len(eb.Instrs))
		wantEC = wantES * costs.Instr
	}
	if fc.entrySteps != wantES {
		return serr(f.Entry, "entry-steps", fc.entrySteps, wantES)
	}
	if fc.entryCost != wantEC {
		return serr(f.Entry, "entry-cost", fc.entryCost, wantEC)
	}
	return nil
}

// vTwin is one side's profile containers.
type vTwin struct {
	edges *profile.EdgeProfile
	paths *profile.PathProfile
	table *profile.Table
	hooks hookLog
}

// hookLog records path-hook invocations without building strings:
// entry i is routine fns[i] with the path of edge IDs
// ids[ends[i-1]:ends[i]].
type hookLog struct {
	fns  []string
	ends []int
	ids  []int32
}

func (l *hookLog) add(fn string, p cfg.Path) {
	l.fns = append(l.fns, fn)
	for _, e := range p {
		l.ids = append(l.ids, int32(e.ID))
	}
	l.ends = append(l.ends, len(l.ids))
}

func (l *hookLog) reset() {
	l.fns, l.ends, l.ids = l.fns[:0], l.ends[:0], l.ids[:0]
}

func (l *hookLog) entry(i int) []int32 {
	start := 0
	if i > 0 {
		start = l.ends[i-1]
	}
	return l.ids[start:l.ends[i]]
}

func (l *hookLog) same(o *hookLog, i int) bool {
	return l.fns[i] == o.fns[i] && slices.Equal(l.entry(i), o.entry(i))
}

// Validator drives compiled arms (got side, through a real Exec)
// against the reference interpretation (ref side), one routine at a
// time. The probe machinery is built once and shared by every routine
// and probe: one Exec, one probe frame reset per probe, and a register
// template copied into it, so driving an arm allocates nothing.
type Validator struct {
	p *Program
	// x is built on the first Func call, which keeps its cost inside
	// that routine's validation time.
	x       *Exec
	fr      frame
	regTmpl []int64 // regTmpl[i] = 1000 + i
	refPath cfg.Path

	// The routine being validated.
	f        *ir.Func
	spec     *FuncSpec
	fc       *fnCode
	fi       int
	got, ref vTwin
	// slotPairs lists the canonical (from, to) pairs by edge slot, for
	// the edge-profile comparison after each probe.
	slotPairs [][2]int
	// hooksSeen counts the hook entries already compared equal. Both
	// logs only ever append, so each probe compares its new entries.
	hooksSeen int

	// The probe being driven, for error reports.
	bi, to, arm int
	probe       int64
}

// NewValidator returns a validator for the routines of p.
func NewValidator(p *Program) *Validator { return &Validator{p: p} }

// Func validates one routine by function index.
func (v *Validator) Func(fi int) error {
	if err := staticCheck(v.p, fi); err != nil {
		return err
	}
	if err := v.bind(fi); err != nil {
		return err
	}
	return v.driveArms()
}

// driveArms drives every arm of the bound routine through every probe.
func (v *Validator) driveArms() error {
	for bi := range v.f.Blocks {
		arms := 1
		if v.f.Blocks[bi].Term.Kind == ir.Branch {
			arms = 2
		}
		for arm := 0; arm < arms; arm++ {
			if err := v.checkArm(bi, arm); err != nil {
				return err
			}
		}
	}
	return nil
}

// liveSuccs iterates the routine's compiled transitions: arm 0 for
// Jump and Branch blocks, arm 1 for Branch blocks. (The unused arm of
// a Jump block is a zero SuccSpec and must not be read.)
func (v *Validator) liveSuccs(visit func(bi, arm int, s *SuccSpec)) {
	for bi := range v.f.Blocks {
		switch v.f.Blocks[bi].Term.Kind {
		case ir.Jump:
			visit(bi, 0, &v.spec.Succs[bi][0])
		case ir.Branch:
			visit(bi, 0, &v.spec.Succs[bi][0])
			visit(bi, 1, &v.spec.Succs[bi][1])
		}
	}
}

// bind points the validator at routine fi with fresh twin containers.
func (v *Validator) bind(fi int) error {
	p := v.p
	v.f, v.spec, v.fc, v.fi = p.prog.Funcs[fi], &p.specs[fi], &p.fns[fi], fi
	kind := profile.ArrayTable
	if v.spec.Hash {
		kind = profile.HashTable
	}
	v.got.table = profile.NewTable(kind, vTableSize, vTableSize)
	v.ref.table = profile.NewTable(kind, vTableSize, vTableSize)
	v.got.edges, v.ref.edges = nil, nil
	v.slotPairs = v.slotPairs[:0]
	if p.opts.CollectEdges {
		v.got.edges = profile.NewEdgeProfile(v.f.Name)
		v.ref.edges = profile.NewEdgeProfile(v.f.Name)
		// Pre-register the canonical slot order on both twins and check
		// it is the dense 0..n-1 numbering the spec promises.
		bySlot := map[int][2]int{}
		maxSlot := -1
		v.liveSuccs(func(bi, arm int, s *SuccSpec) {
			if s.EdgeSlot < 0 {
				return
			}
			bySlot[int(s.EdgeSlot)] = [2]int{bi, s.To}
			if int(s.EdgeSlot) > maxSlot {
				maxSlot = int(s.EdgeSlot)
			}
		})
		for slot := 0; slot <= maxSlot; slot++ {
			pair, ok := bySlot[slot]
			if !ok {
				return &ValidationError{Routine: v.f.Name, From: -1, To: -1, Arm: -1,
					Field: fmt.Sprintf("edge-slot-%d-unassigned", slot)}
			}
			if got := v.got.edges.Slot(pair[0], pair[1]); got != slot {
				return &ValidationError{Routine: v.f.Name, From: pair[0], To: pair[1], Arm: -1,
					Field: "edge-slot", Got: int64(got), Want: int64(slot)}
			}
			v.ref.edges.Slot(pair[0], pair[1])
			v.slotPairs = append(v.slotPairs, pair)
		}
	}
	v.got.paths, v.ref.paths = nil, nil
	if p.opts.CollectPaths {
		v.got.paths = profile.NewPathProfile(v.f.Name)
		v.ref.paths = profile.NewPathProfile(v.f.Name)
	}
	v.got.hooks.reset()
	v.ref.hooks.reset()
	v.hooksSeen = 0

	if v.x == nil {
		x, err := NewExec(p, Config{Fts: make([]FuncRun, len(p.fns)), PathHook: func(fn string, pa cfg.Path) {
			v.got.hooks.add(fn, pa)
		}})
		if err != nil {
			return err
		}
		v.x = x
	}
	v.x.fts[fi] = FuncRun{Edges: v.got.edges, Paths: v.got.paths, Table: v.got.table}
	// The root-step memo points into the routine's path twin, which is
	// fresh.
	clear(v.x.rootMemo[fi])
	for i := len(v.regTmpl); i < v.fc.nregs; i++ {
		v.regTmpl = append(v.regTmpl, int64(1000+i))
	}
	if cap(v.fr.regs) < v.fc.nregs {
		v.fr.regs = make([]int64, v.fc.nregs)
	}
	return nil
}

// refOps is the reference interpretation of a planir op stream,
// mirroring the dense interpreter's runOps contract (which planir
// validation pins down): it returns the final path register and the
// accrued instrumentation cost, recording counter effects in t.
func refOps(ops []planir.Op, r int64, t *profile.Table, hash, poison bool, costs *CostModel) (int64, int64) {
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
			if poison {
				icost += costs.PoisonCheck
				if r < 0 {
					t.BumpCold()
					icost += costs.ColdBump
					continue
				}
			}
			switch {
			case hash:
				icost += costs.CountHash
			case op.Kind == planir.OpCountC:
				icost += costs.CountConst
			default:
				icost += costs.CountArray
			}
			t.Inc(idx)
		}
	}
	return r, icost
}

// checkArm drives one compiled transition closure through every probe
// and compares it against the reference. Closure panics surface as
// structured errors rather than killing the engine build.
func (v *Validator) checkArm(bi, arm int) (err error) {
	term := &v.f.Blocks[bi].Term
	var s *SuccSpec
	v.bi, v.to, v.arm = bi, -1, arm
	if term.Kind != ir.Ret {
		s = &v.spec.Succs[bi][arm]
		v.to = s.To
	}
	defer func() {
		if r := recover(); r != nil {
			err = &ValidationError{Routine: v.f.Name, From: bi, To: v.to, Arm: arm,
				Field: fmt.Sprintf("panic: %v", r)}
		}
	}()
	for _, probe := range vProbes {
		if err := v.probeArm(s, term, probe); err != nil {
			return err
		}
	}
	return nil
}

func (v *Validator) fail(field string, got, want int64) error {
	return &ValidationError{Routine: v.f.Name, From: v.bi, To: v.to, Arm: v.arm,
		Field: field, Probe: v.probe, Got: got, Want: want}
}

func (v *Validator) probeArm(s *SuccSpec, term *ir.Term, probe int64) error {
	p, fc, x, fr := v.p, v.fc, v.x, &v.fr
	costs := &p.opts.Costs
	v.probe = probe

	// Compiled side: the probe frame reset to a fresh activation, zeroed
	// charge accumulators, then one direct call of the retained arm
	// closure.
	x.steps, x.base, x.icost, x.ret = 0, 0, 0, -1
	regs := fr.regs[:fc.nregs]
	copy(regs, v.regTmpl)
	*fr = frame{fc: fc, ft: &x.fts[v.fi], r: probe, regs: regs, path: fr.path[:0]}
	ret := fc.blocks[v.bi].arms[v.arm](x, fr)

	// Reference side, derived from term/spec/IR only.
	refR := probe
	var wantSteps, wantBase, wantICost int64
	refPath := v.refPath[:0]
	refTrie := int32(0)
	wantSucc := -1 // block index of the returned code; -1 for Ret
	if term.Kind == ir.Ret {
		wantSteps, wantBase = 1, costs.Term
		if p.opts.CollectPaths {
			v.ref.paths.AddAt(0, nil, 1)
			if p.opts.PathHooks {
				v.ref.hooks.add(v.f.Name, nil)
			}
		}
		wantRet := int64(0)
		if term.Ret >= 0 {
			wantRet = int64(1000 + term.Ret)
		}
		if x.ret != wantRet {
			return v.fail("ret", x.ret, wantRet)
		}
	} else {
		wantSucc = s.To
		wantSteps, wantBase = 1, costs.Term
		if s.To != v.bi+1 {
			wantBase += costs.TakenPenalty
		}
		// The solo-successor fold, derived from the IR: a call-free
		// successor's whole body charge rides on this transition.
		if toInstrs := v.f.Blocks[s.To].Instrs; !hasCall(toInstrs) {
			wantSteps += int64(len(toInstrs))
			wantBase += int64(len(toInstrs)) * costs.Instr
		}
		var opIcost int64
		refR, opIcost = refOps(s.Ops, probe, v.ref.table, v.spec.Hash, v.spec.PoisonCheck, costs)
		wantICost = s.InstrCost + opIcost
		if p.opts.CollectEdges && s.EdgeSlot >= 0 {
			v.ref.edges.BumpSlot(int(s.EdgeSlot))
		}
		if p.opts.CollectPaths {
			rp := v.ref.paths
			if !s.Back {
				refPath = append(refPath, s.PathEdge)
				refTrie = rp.Step(0, int32(s.PathEdge.ID))
			} else {
				refTrie = rp.Step(0, int32(s.ExitDummy.ID))
				refPath = append(refPath, s.ExitDummy)
				rp.AddAt(refTrie, refPath, 1)
				if p.opts.PathHooks {
					v.ref.hooks.add(v.f.Name, refPath)
				}
				refPath = append(refPath[:0], s.EntryDummy)
				refTrie = rp.Step(0, int32(s.EntryDummy.ID))
			}
		}
	}
	v.refPath = refPath

	// Successor identity: the returned pointer must be the compiled
	// code of exactly the spec'd block.
	if wantSucc < 0 && ret != nil || wantSucc >= 0 && ret != &fc.blocks[wantSucc] {
		return v.fail("succ", int64(succIndex(fc, ret)), int64(wantSucc))
	}
	if fr.r != refR {
		return v.fail("reg", fr.r, refR)
	}
	if x.steps != wantSteps {
		return v.fail("steps", x.steps, wantSteps)
	}
	if x.base != wantBase {
		return v.fail("base", x.base, wantBase)
	}
	if x.icost != wantICost {
		return v.fail("icost", x.icost, wantICost)
	}
	// The complete observable counter-table state of both twins: every
	// counter or occupied hash slot, plus the cold, lost, drop, and
	// saturation accounting.
	if d, differ := v.got.table.Diff(v.ref.table); differ {
		return v.fail(tableField(d), d.Got, d.Want)
	}
	if p.opts.CollectEdges {
		// The twins count only through their dense slots, so comparing
		// those compares every canonical edge's count.
		if slot, g, w := v.got.edges.DiffSlots(v.ref.edges); slot >= 0 {
			return v.fail(fmt.Sprintf("edge[%d->%d]", v.slotPairs[slot][0], v.slotPairs[slot][1]), g, w)
		}
	}
	if p.opts.CollectPaths {
		if fr.trie != refTrie {
			return v.fail("trie", int64(fr.trie), int64(refTrie))
		}
		if len(fr.path) != len(refPath) {
			return v.fail("path-len", int64(len(fr.path)), int64(len(refPath)))
		}
		for i := range refPath {
			if fr.path[i].ID != refPath[i].ID {
				return v.fail(fmt.Sprintf("path[%d]", i), int64(fr.path[i].ID), int64(refPath[i].ID))
			}
		}
		if g, w := v.got.paths.Total(), v.ref.paths.Total(); g != w {
			return v.fail("path-total", g, w)
		}
		if g, w := v.got.paths.Distinct(), v.ref.paths.Distinct(); g != w {
			return v.fail("path-distinct", int64(g), int64(w))
		}
		gh, rh := &v.got.hooks, &v.ref.hooks
		if len(gh.fns) != len(rh.fns) {
			return v.fail("hooks", int64(len(gh.fns)), int64(len(rh.fns)))
		}
		for i := v.hooksSeen; i < len(rh.fns); i++ {
			if !gh.same(rh, i) {
				return v.fail(fmt.Sprintf("hook[%d]", i), 0, 0)
			}
		}
		v.hooksSeen = len(rh.fns)
	}
	return nil
}

// succIndex names the block whose compiled code ret points at: -1 for
// nil (a return), -2 for a pointer outside the routine.
func succIndex(fc *fnCode, ret *blockCode) int {
	if ret == nil {
		return -1
	}
	for i := range fc.blocks {
		if ret == &fc.blocks[i] {
			return i
		}
	}
	return -2
}

// tableField names a table difference the way ValidationError reports
// it.
func tableField(d profile.TableDiff) string {
	switch d.Field {
	case profile.DiffKind:
		return "table-kind"
	case profile.DiffN:
		return "table-n"
	case profile.DiffSize:
		return "table-size"
	case profile.DiffCold:
		return "table-cold"
	case profile.DiffLost:
		return "table-lost"
	case profile.DiffDrops:
		return "table-drops"
	case profile.DiffSaturated:
		return "table-saturated"
	case profile.DiffCounter:
		return fmt.Sprintf("table[%d]", d.At)
	case profile.DiffOccupied:
		return "table-slots"
	case profile.DiffSlot:
		return fmt.Sprintf("table-slot[%d]", d.At)
	}
	return fmt.Sprintf("table-key[%d]", d.At)
}

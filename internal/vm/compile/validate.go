package compile

// Translation validation: prove, per block pair, that the compiled
// threaded code has the same observable effect as the interpreter's
// transition semantics. The compiled form is aggressively fused — op
// streams fold to masked adds, constant costs collapse into one
// addition, solo successors' charges migrate into their predecessors'
// terminators — so instead of trusting the folds, Validate replays
// every retained transition closure (blockCode.arms) against the one
// per-transition step the dense interpreter executes (Stepper.Step and
// EndPath, step.go), driven from the same activation over twin profile
// containers. The step's charges stop at the instrumentation cost; the
// terminator's step and base charges are derived independently from
// the IR. The complete observable state is compared after every probe:
//
//   - path register (the fold target)
//   - step, base-cost, and instrumentation-cost deltas, with the
//     solo-successor charge derived from the IR (a call-free successor
//     of n instructions folds n steps and n*Instr cost into the
//     transition)
//   - returned successor identity (pointer into the function's blocks)
//   - counter-table state (array or hash), including poison-check
//     cold bumps, drops, and lost counts
//   - edge-profile counts over every canonical slot
//   - path-tracking effects: trie cursor, pending path, recorded
//     totals, and path-hook invocations
//
// Each fused lowering — register folds, the single-count
// specialization, the solo-successor charge fold, edge-slot bumps, and
// incremental trie stepping — is thereby checked against the step. The
// generic op lowering calls the step's own RunOps, so for it
// validation checks only the wiring around the call; RunOps and Step
// themselves are pinned by hand-computed expectations
// (TestRunOpsCharges, TestStepCharges), since no differential check
// can catch a fault that every executor shares.
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
// against the shared transition step (ref side, Stepper.Step over twin
// containers), one routine at a time. The probe machinery is built
// once and shared by every routine and probe: one Exec, one probe
// frame reset per probe, and a register template copied into it, so
// driving an arm allocates nothing.
type Validator struct {
	p *Program
	// x is built on the first Func call, which keeps its cost inside
	// that routine's validation time.
	x       *Exec
	fr      frame
	regTmpl []int64 // regTmpl[i] = 1000 + i

	// The routine being validated: the compiled side's containers and
	// hook log, and the reference step bound to their twins.
	f        *ir.Func
	spec     *FuncSpec
	fc       *fnCode
	fi       int
	got      FuncRun
	gotHooks hookLog
	ref      Stepper
	refHooks hookLog
	refTrack Track
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
func NewValidator(p *Program) *Validator {
	v := &Validator{p: p}
	v.ref.Costs = &p.opts.Costs
	if p.opts.PathHooks {
		v.ref.Hook = v.refHooks.add
	}
	return v
}

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
	got := FuncRun{Table: profile.NewTable(kind, vTableSize, vTableSize)}
	ref := FuncRun{Table: profile.NewTable(kind, vTableSize, vTableSize)}
	v.slotPairs = v.slotPairs[:0]
	if p.opts.CollectEdges {
		got.Edges = profile.NewEdgeProfile(v.f.Name)
		ref.Edges = profile.NewEdgeProfile(v.f.Name)
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
			if n := got.Edges.Slot(pair[0], pair[1]); n != slot {
				return &ValidationError{Routine: v.f.Name, From: pair[0], To: pair[1], Arm: -1,
					Field: "edge-slot", Got: int64(n), Want: int64(slot)}
			}
			ref.Edges.Slot(pair[0], pair[1])
			v.slotPairs = append(v.slotPairs, pair)
		}
	}
	if p.opts.CollectPaths {
		got.Paths = profile.NewPathProfile(v.f.Name)
		ref.Paths = profile.NewPathProfile(v.f.Name)
	}
	v.got = got
	v.ref.Name, v.ref.Spec, v.ref.Run = v.f.Name, v.spec, ref
	v.gotHooks.reset()
	v.refHooks.reset()
	v.hooksSeen = 0

	if v.x == nil {
		x, err := NewExec(p, Config{Fts: make([]FuncRun, len(p.fns)), PathHook: v.gotHooks.add})
		if err != nil {
			return err
		}
		v.x = x
	}
	v.x.fts[fi] = got
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

	// Reference side: the shared step from the same fresh activation,
	// plus the terminator charges derived from the IR.
	rt := &v.refTrack
	rt.R, rt.Path, rt.Trie = probe, rt.Path[:0], 0
	wantSteps, wantBase := int64(1), costs.Term
	var wantICost int64
	wantSucc := -1 // block index of the returned code; -1 for Ret
	if term.Kind == ir.Ret {
		v.ref.EndPath(rt)
		wantRet := int64(0)
		if term.Ret >= 0 {
			wantRet = int64(1000 + term.Ret)
		}
		if x.ret != wantRet {
			return v.fail("ret", x.ret, wantRet)
		}
	} else {
		wantSucc = s.To
		if s.To != v.bi+1 {
			wantBase += costs.TakenPenalty
		}
		// The solo-successor fold, derived from the IR: a call-free
		// successor's whole body charge rides on this transition.
		if toInstrs := v.f.Blocks[s.To].Instrs; !hasCall(toInstrs) {
			wantSteps += int64(len(toInstrs))
			wantBase += int64(len(toInstrs)) * costs.Instr
		}
		wantICost = v.ref.Step(s, rt)
	}

	// Successor identity: the returned pointer must be the compiled
	// code of exactly the spec'd block.
	if wantSucc < 0 && ret != nil || wantSucc >= 0 && ret != &fc.blocks[wantSucc] {
		return v.fail("succ", int64(succIndex(fc, ret)), int64(wantSucc))
	}
	if fr.r != rt.R {
		return v.fail("reg", fr.r, rt.R)
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
	got, ref := &v.got, &v.ref.Run
	if d, differ := got.Table.Diff(ref.Table); differ {
		return v.fail(tableField(d), d.Got, d.Want)
	}
	if p.opts.CollectEdges {
		// The twins count only through their dense slots, so comparing
		// those compares every canonical edge's count.
		if slot, g, w := got.Edges.DiffSlots(ref.Edges); slot >= 0 {
			return v.fail(fmt.Sprintf("edge[%d->%d]", v.slotPairs[slot][0], v.slotPairs[slot][1]), g, w)
		}
	}
	if p.opts.CollectPaths {
		if fr.trie != rt.Trie {
			return v.fail("trie", int64(fr.trie), int64(rt.Trie))
		}
		if len(fr.path) != len(rt.Path) {
			return v.fail("path-len", int64(len(fr.path)), int64(len(rt.Path)))
		}
		for i := range rt.Path {
			if fr.path[i] != rt.Path[i] {
				return v.fail(fmt.Sprintf("path[%d]", i), int64(fr.path[i]), int64(rt.Path[i]))
			}
		}
		if g, w := got.Paths.Total(), ref.Paths.Total(); g != w {
			return v.fail("path-total", g, w)
		}
		if g, w := got.Paths.Distinct(), ref.Paths.Distinct(); g != w {
			return v.fail("path-distinct", int64(g), int64(w))
		}
		gh, rh := &v.gotHooks, &v.refHooks
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

package compile

// Translation validation: prove, per block pair, that the compiled
// threaded code has the same observable effect as the reference
// transition semantics. The compiled form is aggressively fused — op
// streams fold to masked adds, constant costs collapse into one
// addition, solo successors' charges migrate into their predecessors'
// terminators — so instead of trusting the folds, Validate replays
// every retained transition closure (blockCode.arms) against the one
// per-transition step definition (Stepper.Step and EndPath, step.go),
// driven from the same activation over twin profile containers. The step's charges stop at the instrumentation cost; the
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
//   - in a Telemetry build, the VM counters: transitions, ops, table
//     increments, cold bumps and completed paths, counted by the
//     compiled side's meter into the probe Exec's cells and by the
//     step into the reference's
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
// mirror the implementation rather than the spec: the micro-op
// lowering of block bodies (micro.go) — its fusions, dead-store
// elisions, branch conditions, and global, array and output effects.
// That stays covered by the dense-vs-compiled differential tests (vm
// package: the peephole pattern table, the workload agreement test and
// the fuzzer, which compare printed output too); validation owns the
// terminator lowering, where every instrumentation effect of the
// Bond–McKinley plans lives.
//
// Hot-path traces (trace.go) are formed during runs, not compiled here;
// Validator.Trace checks each one by composition when it is formed,
// from the arm constants checkConsts ties to the arms proven here.
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
	"pathprof/internal/telemetry"
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

// hasCall reports whether a block's instructions hold a call: a
// call-free block is one segment, run solo.
func hasCall(instrs []ir.Instr) bool {
	for i := range instrs {
		if instrs[i].Op == ir.Call {
			return true
		}
	}
	return false
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
// containers), one routine at a time, and checks traces (Trace). The
// probe machinery is built once and shared by every routine and probe:
// one Exec, one probe frame reset per probe, and a register template
// copied into it, so driving an arm allocates nothing.
type Validator struct {
	p *Program
	// x is built for the first routine validated, which keeps its cost
	// inside that routine's validation time.
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
	// gotTel and refTel are the probe Exec's and the reference's VM
	// counter cells in a Telemetry build, zeroed before every probe.
	gotTel, refTel vmCells
	// soloLen holds each block's instruction count when it is
	// call-free, -1 when it has a call: the IR side of the solo charge
	// fold.
	soloLen []int64
	// slotPairs lists the canonical (from, to) pairs by edge slot, for
	// the edge-profile comparison after each probe.
	slotPairs [][2]int
	// hooksSeen counts the hook entries already compared equal. Both
	// logs only ever append, so each probe compares its new entries.
	hooksSeen int

	// The probe being driven, for error reports.
	bi, to, arm int
	probe       int64

	// The reused buffers of Trace: the reference walk, and a scratch
	// trace the walk's arms append their effects to.
	walk []traceArm
	fx   trace
	// guards holds the guard micro-op, its step zeroed, last proven to
	// exit exactly when its block's branch does not take the key's arm.
	guards map[guardKey]micro
}

// vmCells holds the VM counters validation compares. The path-length
// histogram is left out; its cells only come from a registry.
type vmCells struct{ trans, ops, incs, cold, paths telemetry.Cell }

// view returns the cells as one run's VMCells.
func (c *vmCells) view() telemetry.VMCells {
	return telemetry.VMCells{Transitions: &c.trans, Ops: &c.ops, TableIncs: &c.incs, ColdBumps: &c.cold, Paths: &c.paths}
}

// NewValidator returns a validator for the routines of p.
func NewValidator(p *Program) *Validator {
	v := &Validator{p: p}
	v.ref.Costs = &p.opts.Costs
	if p.opts.PathHooks {
		v.ref.Hook = v.refHooks.add
	}
	if p.opts.Telemetry {
		v.ref.Tel = v.refTel.view()
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

// use points the validator at routine fi: its IR, specs and code, the
// IR's solo lengths, and a probe Exec and frame sized for it.
func (v *Validator) use(fi int) {
	p := v.p
	v.f, v.spec, v.fc, v.fi = p.prog.Funcs[fi], &p.specs[fi], &p.fns[fi], fi
	v.soloLen = v.soloLen[:0]
	for _, b := range v.f.Blocks {
		n := int64(len(b.Instrs))
		if hasCall(b.Instrs) {
			n = -1
		}
		v.soloLen = append(v.soloLen, n)
	}
	if v.x == nil {
		var tel telemetry.VMCells
		if p.opts.Telemetry {
			tel = v.gotTel.view()
		}
		v.x = newProbeExec(p, v.gotHooks.add, tel)
		v.guards = map[guardKey]micro{}
	}
	for i := len(v.regTmpl); i < v.fc.nregs; i++ {
		v.regTmpl = append(v.regTmpl, int64(1000+i))
	}
	if cap(v.fr.regs) < v.fc.nregs {
		v.fr.regs = make([]int64, v.fc.nregs)
	}
}

// bind points the validator at routine fi with fresh twin containers.
func (v *Validator) bind(fi int) error {
	p := v.p
	v.use(fi)
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
	v.x.fts[fi] = got
	// The root-step memo points into the routine's path twin, which is
	// fresh.
	clear(v.x.rootMemo[fi])
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
	fc, x, fr := v.fc, v.x, &v.fr
	v.probe = probe

	// Compiled side: the probe frame reset to a fresh activation, zeroed
	// charge accumulators, then one direct call of the retained arm
	// closure.
	v.resetProbe(probe)
	ret := fc.blocks[v.bi].arms[v.arm](x, fr)

	// Reference side: the shared step from the same fresh activation,
	// plus the terminator charges derived from the IR.
	rt := &v.refTrack
	rt.R, rt.Path, rt.Trie = probe, rt.Path[:0], 0
	succ, steps, base, icost := -1, int64(1), v.p.opts.Costs.Term, int64(0)
	if term.Kind == ir.Ret {
		v.ref.EndPath(rt)
		want := int64(0)
		if term.Ret >= 0 {
			want = int64(1000 + term.Ret)
		}
		if x.ret != want {
			return v.fail("ret", x.ret, want)
		}
	} else {
		succ, icost = s.To, v.ref.Step(s, rt)
		steps, base = v.irCharge(v.bi, s)
	}
	if err := v.compare(ret, succ, steps, base, icost); err != nil {
		return err
	}
	return v.checkConsts(s)
}

// checkConsts checks the arm's retained constants, which traces sum
// and copy (trace.go), against what its closure just did from path
// register v.probe: its charges, edge slot, register fold and VM tally,
// the instrumentation charge, fold and table increments only for a
// fold arm, whose closure has no op closure adding its own.
func (v *Validator) checkConsts(s *SuccSpec) error {
	ac, x := &v.fc.traceSrc[v.bi].consts[v.arm], v.x
	slot, fold, tel := int32(-1), ac.ops == nil, v.p.opts.Telemetry
	if s != nil && v.p.opts.CollectEdges {
		slot = s.EdgeSlot
	}
	for _, c := range [...]struct {
		field     string
		check     bool
		got, want int64
	}{
		{"consts-steps", true, ac.steps, x.steps},
		{"consts-base", true, ac.base, x.base},
		{"consts-slot", true, int64(ac.slot), int64(slot)},
		{"consts-icost", fold, ac.icost, x.icost},
		{"consts-fold", fold, (v.probe & ac.mask) + ac.add, v.fr.r},
		{"consts-transitions", tel, ac.n.trans, v.gotTel.trans.Value()},
		{"consts-ops", tel, ac.n.ops, v.gotTel.ops.Value()},
		{"consts-table-incs", tel && fold, ac.n.incs, v.gotTel.incs.Value()},
	} {
		if c.check && c.got != c.want {
			return v.fail(c.field, c.got, c.want)
		}
	}
	return nil
}

// resetProbe resets the compiled side to a fresh activation with path
// register probe, and zeroes its charge accumulators and both sides'
// VM counter cells.
func (v *Validator) resetProbe(probe int64) {
	x, fr := v.x, &v.fr
	x.steps, x.base, x.icost, x.ret = 0, 0, 0, -1
	if v.p.opts.Telemetry {
		v.gotTel, v.refTel = vmCells{}, vmCells{}
	}
	regs := fr.regs[:v.fc.nregs]
	copy(regs, v.regTmpl)
	*fr = frame{fc: v.fc, ft: &x.fts[v.fi], r: probe, regs: regs, path: fr.path[:0]}
}

// irCharge derives a transition's step and base charge from the IR:
// one step and Term, the taken penalty off the fall-through, and the
// solo-successor fold (a call-free successor of n instructions rides
// its n steps and n*Instr cost on the transition).
func (v *Validator) irCharge(from int, s *SuccSpec) (steps, base int64) {
	costs := &v.p.opts.Costs
	steps, base = 1, costs.Term
	if s.To != from+1 {
		base += costs.TakenPenalty
	}
	if n := v.soloLen[s.To]; n >= 0 {
		steps += n
		base += n * costs.Instr
	}
	return steps, base
}

// compare checks the compiled side's state after a probe against the
// reference's: the returned code (block index wantSucc, -1 for a
// return), the path register, the charges, every twin container, the
// frame's trie cursor and pending path and, in a Telemetry build, the
// VM counters.
func (v *Validator) compare(ret *blockCode, wantSucc int, wantSteps, wantBase, wantICost int64) error {
	p, fc, x, fr, rt := v.p, v.fc, v.x, &v.fr, &v.refTrack
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
	if p.opts.Telemetry {
		g, r := &v.gotTel, &v.refTel
		for _, c := range [...]struct {
			field     string
			got, want *telemetry.Cell
		}{
			{"vm-transitions", &g.trans, &r.trans},
			{"vm-ops", &g.ops, &r.ops},
			{"vm-table-incs", &g.incs, &r.incs},
			{"vm-cold-bumps", &g.cold, &r.cold},
			{"vm-paths", &g.paths, &r.paths},
		} {
			if c.got.Value() != c.want.Value() {
				return v.fail(c.field, c.got.Value(), c.want.Value())
			}
		}
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

// Trace validates trace t, formed by an Exec whose path profile for
// t's routine is live, by composition, without running it: a
// reference walk of t's path through the successor specs and the IR
// fixes its shape (tracePath); each step's run, guard and effects must
// be its block's run, a guard proven against the block's branch, and
// the on-path arm's effects, and each exit's restored state and t's
// end sums over the walk, with the trie nodes of a read-only walk of
// live (checkSteps); its tail's constants come from the walk's end
// (checkTail). A side trace's walk starts at its fork, from the state
// its parent's validation proved there.
func (v *Validator) Trace(t *trace, live *profile.PathProfile) (err error) {
	if v.f == nil || v.fi != int(t.fi) {
		v.use(int(t.fi))
	}
	v.bi, v.to, v.arm, v.probe = int(t.head), -1, -1, 0
	defer func() {
		if r := recover(); r != nil {
			err = v.fail(fmt.Sprintf("trace: panic: %v", r), 0, 0)
		}
	}()
	from, next, err := v.tracePath(t, live)
	if err != nil {
		return err
	}
	if err := v.checkSteps(t, live, from); err != nil {
		return err
	}
	return v.checkTail(t, live, next)
}

// traceArm is one step of a trace's reference walk: a block and the
// arm the path leaves it by (-1: the path's return).
type traceArm struct{ b, arm int }

// tracePath derives t's reference walk from its path and the IR: the
// blocks and arms from where t starts, and the block after it
// (tailOpen, tailBack). It checks t's shape against the walk: the
// head, the path's edges, the step count and the tail. A root trace
// starts at its head; a side trace at its fork's block, on the path
// its parent took there. It returns the state t starts from.
func (v *Validator) tracePath(t *trace, live *profile.PathProfile) (from tsums, next int, err error) {
	b := int(v.fc.entry)
	if t.prefix == 1 {
		b = v.spec.Edges[t.ids[0]].Dst.ID
		from.node = live.Child(0, t.ids[0])
	}
	if t.head != int32(b) {
		return from, 0, v.fail("trace: head", int64(t.head), int64(b))
	}
	if p := t.parent; p != nil {
		e := &p.exits[t.fork]
		k := t.prefix + e.plen
		if !p.steps[t.fork].guarded() || p.prefix != t.prefix || !slices.Equal(p.ids[:k], t.ids[:k]) {
			return from, 0, v.fail("trace: fork", int64(t.fork), -1)
		}
		from, b = e.tsums, succIndex(v.fc, e.off)
	}
	v.walk = v.walk[:0]
	tail, k := tailKind(0), int(t.prefix+from.plen)
	for ; ; k++ {
		blk := v.f.Blocks[b]
		if v.soloLen[b] < 0 {
			tail, next = tailOpen, b
			break
		}
		if k == len(t.ids) {
			if blk.Term.Kind != ir.Ret {
				return from, 0, v.fail("trace: path ends off a return", int64(b), -1)
			}
			v.walk = append(v.walk, traceArm{b, -1})
			tail = tailRet
			break
		}
		arm := -1
		for a := range 1 + b2i(blk.Term.Kind == ir.Branch) {
			s := &v.spec.Succs[b][a]
			if s.Back && int32(s.ExitDummy.ID) == t.ids[k] || !s.Back && int32(s.PathEdge.ID) == t.ids[k] {
				arm = int(a)
			}
		}
		if arm < 0 {
			return from, 0, v.fail(fmt.Sprintf("trace: no arm of block %d takes path edge %d", b, t.ids[k]), -1, int64(t.ids[k]))
		}
		v.walk = append(v.walk, traceArm{b, arm})
		s := &v.spec.Succs[b][arm]
		if s.Back {
			tail, next = tailBack, s.To
			k++
			break
		}
		b = s.To
	}
	if k != len(t.ids) {
		return from, 0, v.fail("trace: path edges", int64(len(t.ids)), int64(k))
	}
	if len(t.steps) != len(v.walk) {
		return from, 0, v.fail("trace: steps", int64(len(t.steps)), int64(len(v.walk)))
	}
	if t.tail != tail {
		return from, 0, v.fail("trace: tail", int64(t.tail), int64(tail))
	}
	return from, next, nil
}

// guardKey names a guard by its routine, its block, and the arm the
// path leaves the block by.
type guardKey struct{ fi, b, arm int }

// checkSteps checks each of t's steps. It has a guard exactly on a
// branch, in the walk's direction, except at a side trace's first
// step, which leaves its fork's block by the fork's off-trace arm. Its
// micro-ops, end to end in t's stream, are its block's lowered run
// (none at a side trace's first step, whose fork ran it), then its
// guard, an exit-if naming the step, then the effects appendEffects
// makes of the on-path arm's constants (none at a return). A guard is
// run against its block's branch (checkGuard) once per routine, block
// and direction; a later guard with the same micro-op, but for the
// step it names, has the same verdict. The state its side exit
// restores, and then t's end, must be want, the state t starts from,
// plus the sums over the walk before it: the step and base charges
// derived from the IR (irCharge), the instrumentation charge and VM
// counters of the walk's arm constants, the pending-path length, and
// the trie node of a read-only walk of live along the path. An exit at
// a guard must run its block's other arm.
func (v *Validator) checkSteps(t *trace, live *profile.PathProfile, want tsums) error {
	v.fx.fns = v.fx.fns[:0]
	for i, w := range v.walk {
		s, e, src := &t.steps[i], &t.exits[i], &v.fc.traceSrc[w.b]
		fork := i == 0 && t.parent != nil
		branch := v.f.Blocks[w.b].Term.Kind == ir.Branch
		if s.guarded() != (branch && !fork) || s.guarded() && s.want != (w.arm == 0) ||
			fork && int32(w.arm) != t.parent.exits[t.fork].arm {
			return v.fail(fmt.Sprintf("trace: step %d direction", i), b2i(s.guarded()), int64(w.arm))
		}
		end, body := s.fx, src.body
		if s.guarded() {
			end = s.guard
		}
		if fork {
			body = nil
		}
		if !slices.Equal(t.code[s.at:end], body) || i == 0 && s.at != 0 {
			return v.fail(fmt.Sprintf("trace: step %d body", i), int64(end-s.at), int64(len(body)))
		}
		if s.guarded() {
			g := t.code[s.guard]
			if s.fx != s.guard+1 || !isExitIf(g.op) || g.d != int32(i) {
				return v.fail(fmt.Sprintf("trace: step %d guard", i), int64(g.d), int64(i))
			}
			key := guardKey{v.fi, w.b, w.arm}
			if g.d = 0; v.guards[key] != g {
				if err := v.checkGuard(t.code[s.guard], src, w.arm); err != nil {
					return err
				}
				v.guards[key] = g
			}
			if e.off != &v.fc.blocks[w.b] || e.arm != int32(1-w.arm) {
				return v.fail(fmt.Sprintf("trace exit %d: off-trace arm", i), int64(e.arm), int64(1-w.arm))
			}
		}
		if e.tsums != want || want.node < 0 {
			return v.fail(fmt.Sprintf("trace exit %d: %+v, want %+v", i, e.tsums, want), 0, 0)
		}
		v.fx.code = v.fx.code[:0]
		if w.arm < 0 {
			want.steps++
			want.base += v.p.opts.Costs.Term
		} else {
			ds, db := v.irCharge(w.b, &v.spec.Succs[w.b][w.arm])
			ac := &src.consts[w.arm]
			want.steps, want.base, want.icost = want.steps+ds, want.base+db, want.icost+ac.icost
			want.n.add(&ac.n)
			want.node = live.Child(want.node, t.ids[t.prefix+want.plen])
			v.fx.appendEffects(ac)
		}
		want.plen++
		if fx := t.code[s.fx:t.fxEnd(i)]; !slices.Equal(fx, v.fx.code) {
			return v.fail(fmt.Sprintf("trace: step %d effects", i), int64(len(fx)), int64(len(v.fx.code)))
		}
	}
	if len(t.fns) != len(v.fx.fns) {
		return v.fail("trace: counter ops", int64(len(t.fns)), int64(len(v.fx.fns)))
	}
	if end := (tsums{t.need, t.base, t.icost, t.n, t.end, want.plen}); end != want || want.node < 0 {
		return v.fail(fmt.Sprintf("trace end: %+v, want %+v", end, want), 0, 0)
	}
	return nil
}

// checkGuard runs guard g alone through runMicros, with its operands,
// and those of its block's own branch (src's condFn or condition
// register), set to every probe register value, the constants either
// compares with, and the values one off those. On a path that leaves
// the block by arm, g must exit, at the step it names, exactly when
// the branch does not take arm.
func (v *Validator) checkGuard(g micro, src *blockTraceSrc, arm int) error {
	x, fr := v.x, &v.fr
	fr.regs = fr.regs[:v.fc.nregs]
	var buf [12]int64
	vals := append(buf[:0], vProbes...)
	for _, m := range [...]micro{g, src.test} {
		if m.op >= mXEqK && m.op <= mXGeK {
			vals = append(vals, m.imm-1, m.imm, m.imm+1)
		}
	}
	// b, the second register operand, matters only to a register
	// compare.
	nb := int64(1)
	if g.op < mXEqK || src.test.op < mXEqK {
		nb = 3
	}
	for _, a := range vals {
		for j := range nb {
			b := a - 1 + j
			for _, m := range [...]micro{g, src.test} {
				fr.regs[m.a] = a
				if m.op < mXEqK {
					fr.regs[m.b] = b
				}
			}
			taken := fr.regs[src.test.a] != 0
			if src.cond != nil {
				taken = src.cond(x, fr)
			}
			want := taken != (arm == 0)
			if got := runMicros(x, fr, []micro{g}, nil); got != -1 && got != g.d || (got >= 0) != want {
				v.probe = a
				return v.fail(fmt.Sprintf("trace: step %d guard exit", g.d), int64(got), b2i(want))
			}
		}
	}
	return nil
}

// checkTail checks the constants t's tail takes from the walk's last
// arm and block: at a back edge the restart's entry dummy, node and
// memo slot, at a return the returned register, and the block after
// the trace.
func (v *Validator) checkTail(t *trace, live *profile.PathProfile, next int) error {
	last := v.walk[len(v.walk)-1]
	switch t.tail {
	case tailRet:
		if ret := int32(v.f.Blocks[last.b].Term.Ret); t.retReg != ret {
			return v.fail("trace end: returned register", int64(t.retReg), int64(ret))
		}
		return nil
	case tailBack:
		s := &v.spec.Succs[last.b][last.arm]
		if ed := int32(s.EntryDummy.ID); t.restartID != ed {
			return v.fail("trace end: restart edge", int64(t.restartID), int64(ed))
		}
		if node := live.Child(0, t.restartID); node < 0 || t.restart != node {
			return v.fail("trace end: restart node", int64(t.restart), int64(node))
		}
		if m := v.fc.traceSrc[last.b].consts[last.arm].memo; t.memo != m || v.fc.memoTo[m] != int32(s.To) {
			return v.fail("trace end: memo slot", int64(t.memo), int64(m))
		}
	}
	if t.next != &v.fc.blocks[next] {
		return v.fail("trace end: next block", int64(succIndex(v.fc, t.next)), int64(next))
	}
	return nil
}

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
//     compiled side's meter and trace tallies into the probe Exec's
//     cells and by the step into the reference's
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
// Validator.Trace checks each one against the same step when it is
// formed, before the Exec installs it, and checks each of its guards,
// which the trace former derives from a block's branch, against that
// branch.
//
// What IS proven statically per function, before any probes: segment
// charges resum to the interpreter's per-instruction accounting
// (sum of seg.steps == len(instrs), sum of seg.cost == len(instrs) *
// Instr + calls*Call), the solo flag and budget-check gate match the
// call-free criterion, the entry precharge matches the entry block,
// and every live terminator arm was compiled.

import (
	"errors"
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

	// stale marks twins a Func or failed Trace left that Trace must
	// not reuse.
	stale bool
	// The reused buffers of Trace: the trace's path, the reference
	// walk, the renumbered exits, and the forced copies of the trace
	// and its ancestors that probes run, with their steps and their
	// streams.
	path   []pathStep
	walk   []traceArm
	exits  []texit
	forced []trace
	fsteps []tstep
	fcode  []micro
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
	v.stale = true
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
	v.soloLen = v.soloLen[:0]
	for _, b := range v.f.Blocks {
		n := int64(len(b.Instrs))
		if hasCall(b.Instrs) {
			n = -1
		}
		v.soloLen = append(v.soloLen, n)
	}
	v.gotHooks.reset()
	v.refHooks.reset()
	v.hooksSeen = 0

	if v.x == nil {
		var tel telemetry.VMCells
		if p.opts.Telemetry {
			tel = v.gotTel.view()
		}
		v.x = newProbeExec(p, v.gotHooks.add, tel)
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
	fc, x, fr := v.fc, v.x, &v.fr
	v.probe = probe

	// Compiled side: the probe frame reset to a fresh activation, zeroed
	// charge accumulators, then one direct call of the retained arm
	// closure.
	v.resetProbe(probe, nil, 0)
	ret := fc.blocks[v.bi].arms[v.arm](x, fr)

	// Reference side: the shared step from the same fresh activation,
	// plus the terminator charges derived from the IR.
	rt := &v.refTrack
	rt.R, rt.Path, rt.Trie = probe, rt.Path[:0], 0
	if term.Kind == ir.Ret {
		v.ref.EndPath(rt)
		if err := v.checkRet(term); err != nil {
			return err
		}
		return v.compare(ret, -1, 1, v.p.opts.Costs.Term, 0, false)
	}
	wantSteps, wantBase := v.irCharge(v.bi, s)
	wantICost := v.ref.Step(s, rt)
	return v.compare(ret, s.To, wantSteps, wantBase, wantICost, false)
}

// resetProbe resets the compiled side to a fresh activation with path
// register probe, pending path path and trie cursor trie, and zeroes
// its charge accumulators and both sides' VM counter cells.
func (v *Validator) resetProbe(probe int64, path []int32, trie int32) {
	x, fr := v.x, &v.fr
	x.steps, x.base, x.icost, x.ret = 0, 0, 0, -1
	if v.p.opts.Telemetry {
		v.gotTel, v.refTel = vmCells{}, vmCells{}
	}
	regs := fr.regs[:v.fc.nregs]
	copy(regs, v.regTmpl)
	*fr = frame{fc: v.fc, ft: &x.fts[v.fi], r: probe, regs: regs, path: append(fr.path[:0], path...), trie: trie}
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

// checkRet checks the value a Ret terminator left in x.ret against the
// probe register template.
func (v *Validator) checkRet(term *ir.Term) error {
	want := int64(0)
	if term.Ret >= 0 {
		want = int64(1000 + term.Ret)
	}
	if v.x.ret != want {
		return v.fail("ret", v.x.ret, want)
	}
	return nil
}

// compare checks the compiled side's state after a probe against the
// reference's: the returned code (block index wantSucc, -1 for a
// return), the path register, the charges, every twin container and,
// in a Telemetry build, the VM counters. The frame's trie cursor and pending path are compared too, unless
// popped is set: a trace that ends in its routine's return leaves them
// behind in the popped frame, where nothing reads them again.
func (v *Validator) compare(ret *blockCode, wantSucc int, wantSteps, wantBase, wantICost int64, popped bool) error {
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
	if p.opts.CollectPaths && !popped {
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
	}
	if p.opts.CollectPaths {
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
// t's routine is live. The reference walks t's path through the
// routine's successor specs, independently of the trace's constants,
// and checks the trace's shape against the walk (tracePath). Each of
// t's steps must run its block's own lowered run, and each of its
// guards must exit exactly when the block's own branch leaves the
// path, on every probe register value (checkGuards). The trie nodes
// the trace names are checked against a read-only walk of live along
// the path, then renumbered into the twin containers (renumber), where
// Stepper steps the walk's arms as the reference. Every side exit of t
// and its end are then driven from every probe register value, by
// trace.run itself from its root's entry, and the full observable
// state is compared each time (compare), as for a single arm. run
// drives copies of t and its ancestors with forced streams
// (forceTree): the bodies dropped, a passing guard a no-op and a
// failing one an exit-always. The bodies are the blocks' own code,
// which Func does not validate either.
func (v *Validator) Trace(t *trace, live *profile.PathProfile) (err error) {
	// Twins are bound fresh for a routine's first trace and after a
	// divergence. A trace that passes leaves both twins in the same
	// state, which is all every later probe's comparison needs, so the
	// routine's next trace validates on them as they are.
	if v.f == nil || v.fi != int(t.fi) || v.stale {
		if err := v.bind(int(t.fi)); err != nil {
			return err
		}
	}
	v.stale = true
	v.bi, v.to, v.arm = int(t.head), -1, -1
	v.path = v.path[:0]
	v.pathTo(t, len(t.steps))
	next, err := v.tracePath(t)
	if err != nil {
		return err
	}
	defer func() {
		if r := recover(); r != nil {
			err = v.fail(fmt.Sprintf("trace: panic: %v", r), 0, 0)
		}
	}()
	if err := v.checkGuards(t); err != nil {
		return err
	}
	c, err := v.renumber(t, live)
	if err != nil {
		return err
	}
	root := v.forceTree(c)
	for _, probe := range vProbes {
		for i := range t.steps {
			if t.steps[i].guarded() {
				if err := v.probeTrace(root, i, next, probe); err != nil {
					return err
				}
			}
		}
		if err := v.probeTrace(root, -1, next, probe); err != nil {
			return err
		}
	}
	v.stale = false
	return nil
}

// checkGuards checks t's stream outside the transitions' effects: each
// step runs its block's lowered run (none at a side trace's first
// step, whose fork ran it) and then, on a branch, one exit-if guard
// naming the step. Each guard is run alone by runMicros, with its
// operands, and those of the block's own branch (its condFn or
// condition register), set to every probe register value, the
// constants either compares with, and the values one off those; it
// must exit exactly when the branch leaves the path's direction.
func (v *Validator) checkGuards(t *trace) error {
	pre := len(v.path) - len(t.steps)
	x, fr := v.x, &v.fr
	for i := range t.steps {
		s, w := &t.steps[i], v.walk[pre+i]
		src := &v.fc.traceSrc[w.b]
		end := s.fx
		if s.guarded() {
			end = s.guard
		}
		body := src.body
		if i == 0 && t.parent != nil {
			body = nil
		}
		if !slices.Equal(t.code[s.at:end], body) {
			return v.fail(fmt.Sprintf("trace: step %d body", i), int64(end-s.at), int64(len(body)))
		}
		if !s.guarded() {
			continue
		}
		if s.fx != s.guard+1 {
			return v.fail(fmt.Sprintf("trace: step %d guard", i), int64(s.fx-s.guard), 1)
		}
		g := t.code[s.guard]
		if !isExitIf(g.op) || g.d != int32(i) {
			return v.fail(fmt.Sprintf("trace: step %d guard", i), int64(g.d), int64(i))
		}
		// The probe values, and each constant compared with and its
		// neighbours.
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
		v.resetProbe(0, nil, 0)
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
				want := taken != (w.arm == 0)
				if got := runMicros(x, fr, []micro{g}, nil); got != -1 && got != int32(i) || (got >= 0) != want {
					v.probe = a
					return v.fail(fmt.Sprintf("trace: step %d guard exit", i), int64(got), b2i(want))
				}
			}
		}
	}
	return nil
}

// renumber checks the trie nodes t's path names — each step's node,
// its ancestors' included, the end node and the restart node — against
// a read-only walk of live along the path, and returns a copy of t
// whose nodes are the same path's nodes in the bound twins, grown
// along the path (identically on both twins) for it. The copy shares
// its steps with t; its exits live in the validator's buffers until
// the next Trace.
func (v *Validator) renumber(t *trace, live *profile.PathProfile) (*trace, error) {
	got, ref := v.got.Paths, v.ref.Run.Paths
	step := func(twin, id int32) int32 {
		n := got.Step(twin, id)
		if m := ref.Step(twin, id); m != n {
			return -1
		}
		return n
	}
	lnode, tnode := int32(0), int32(0)
	if t.prefix == 1 {
		lnode, tnode = live.Child(0, t.ids[0]), step(0, t.ids[0])
	}
	v.exits = append(v.exits[:0], t.exits...)
	pre := len(v.path) - len(t.steps)
	for i, ps := range v.path {
		if ps.e.node != lnode || lnode < 0 {
			return nil, v.fail(fmt.Sprintf("trace: node at step %d", i), int64(ps.e.node), int64(lnode))
		}
		if i >= pre {
			v.exits[i-pre].node = tnode
		}
		if k := int(t.prefix) + i; k < len(t.ids) {
			lnode, tnode = live.Child(lnode, t.ids[k]), step(tnode, t.ids[k])
		}
	}
	if t.end != lnode || lnode < 0 {
		return nil, v.fail("trace: end node", int64(t.end), int64(lnode))
	}
	c := *t
	c.exits, c.end = v.exits, tnode
	if t.tail == tailBack {
		if want := live.Child(0, t.restartID); t.restart != want {
			return nil, v.fail("trace: restart node", int64(t.restart), int64(want))
		}
		c.restart = step(0, t.restartID)
	}
	return &c, nil
}

// pathStep is one step on a trace's path from its root's entry: the
// step whose effects run there and its exit state, and the step whose
// guard decides the direction there. That is the step itself, except
// at a side trace's first step, where the guard is its fork's and
// fails into the side trace.
type pathStep struct {
	s, guard *tstep
	e        *texit
	fork     bool
}

// pathTo appends to v.path the steps t's path runs from its root's
// entry up to t's step n: its ancestors' steps before their forks,
// then t's own.
func (v *Validator) pathTo(t *trace, n int) {
	if t.parent != nil {
		v.pathTo(t.parent, int(t.fork))
	}
	for i := range t.steps[:n] {
		ps := pathStep{s: &t.steps[i], guard: &t.steps[i], e: &t.exits[i]}
		if i == 0 && t.parent != nil {
			ps.guard, ps.fork = &t.parent.steps[t.fork], true
		}
		v.path = append(v.path, ps)
	}
}

// forceTree copies c and its ancestors into the validator's buffers
// for probes to run, with forced streams: each step's transition
// effects, the block bodies dropped, and every guard a no-op (mNop),
// except each ancestor's fork guard, an exit-always (mExit) into the
// copy of its child. A probe turns one of c's no-ops into an exit. It
// returns the root's copy; c's copy is v.forced[0].
func (v *Validator) forceTree(c *trace) *trace {
	n, depth, size := len(c.steps), 1, len(c.code)
	for a := c; a.parent != nil; a = a.parent {
		n, depth, size = n+int(a.fork)+1, depth+1, size+len(a.parent.code)
	}
	v.fsteps = slices.Grow(v.fsteps[:0], n)
	v.forced = slices.Grow(v.forced[:0], depth)[:depth]
	// No forced stream is longer than its trace's, so v.fcode does not
	// grow past size and the copies can slice it as they go.
	v.fcode = slices.Grow(v.fcode[:0], size)
	for d, a := 0, c; ; d++ {
		ft := &v.forced[d]
		*ft = *a
		m := len(a.steps)
		if d > 0 {
			m = int(v.forced[d-1].fork) + 1
		}
		i0, c0 := len(v.fsteps), len(v.fcode)
		for j, s := range a.steps[:m] {
			s.at, s.side = int32(len(v.fcode)-c0), nil
			if s.guarded() {
				g := micro{op: mNop, d: int32(j)}
				if d > 0 && j == m-1 {
					g.op, s.side = mExit, &v.forced[d-1]
				}
				s.guard = int32(len(v.fcode) - c0)
				v.fcode = append(v.fcode, g)
			}
			fx, end := s.fx, a.fxEnd(j)
			s.fx = int32(len(v.fcode) - c0)
			if s.side == nil {
				v.fcode = append(v.fcode, a.code[fx:end]...)
			}
			v.fsteps = append(v.fsteps, s)
		}
		ft.steps = v.fsteps[i0:len(v.fsteps):len(v.fsteps)]
		ft.code = v.fcode[c0:len(v.fcode):len(v.fcode)]
		if a.parent == nil {
			return ft
		}
		a = a.parent
	}
}

// traceArm is one step of a trace's reference walk: a block and the
// arm the path leaves it by (-1: the path's return).
type traceArm struct{ b, arm int }

// tracePath derives t's reference walk from its path and the IR: the
// blocks and arms from the head, and the block after the trace
// (tailOpen, tailBack). It checks the trace's shape against the walk:
// the head, the step count, the tail, and every guard's presence and
// direction on the path, ancestors' included. A side trace's first
// step has no guard of its own: its fork's guard must send the path
// into it.
func (v *Validator) tracePath(t *trace) (next int, err error) {
	head := v.fc.entry
	if t.prefix == 1 {
		head = int32(v.spec.Edges[t.ids[0]].Dst.ID)
	}
	if t.head != head {
		return 0, v.fail("trace: head", int64(t.head), int64(head))
	}
	v.walk = v.walk[:0]
	b, tail := int(head), tailKind(0)
	for k := int(t.prefix); ; k++ {
		blk := v.f.Blocks[b]
		if v.soloLen[b] < 0 {
			tail, next = tailOpen, b
			break
		}
		if k == len(t.ids) {
			if blk.Term.Kind != ir.Ret {
				return 0, v.fail("trace: path ends off a return", int64(b), -1)
			}
			v.walk = append(v.walk, traceArm{b, -1})
			tail = tailRet
			break
		}
		arm := -1
		for a := 0; a < 2; a++ {
			if a == 1 && blk.Term.Kind != ir.Branch {
				break
			}
			s := &v.spec.Succs[b][a]
			if s.Back && int32(s.ExitDummy.ID) == t.ids[k] || !s.Back && int32(s.PathEdge.ID) == t.ids[k] {
				arm = a
				break
			}
		}
		if arm < 0 {
			return 0, v.fail(fmt.Sprintf("trace: no arm of block %d takes path edge %d", b, t.ids[k]), -1, int64(t.ids[k]))
		}
		v.walk = append(v.walk, traceArm{b, arm})
		s := &v.spec.Succs[b][arm]
		if s.Back {
			tail, next = tailBack, s.To
			break
		}
		b = s.To
	}
	if len(v.path) != len(v.walk) {
		return 0, v.fail("trace: steps", int64(len(v.path)), int64(len(v.walk)))
	}
	if t.tail != tail {
		return 0, v.fail("trace: tail", int64(t.tail), int64(tail))
	}
	for i, w := range v.walk {
		branch := v.f.Blocks[w.b].Term.Kind == ir.Branch
		ps := v.path[i]
		if guarded := ps.guard.guarded(); guarded != branch || ps.fork && ps.s.guarded() {
			return 0, v.fail(fmt.Sprintf("trace: step %d guard", i), b2i(guarded), b2i(branch))
		}
		if want := ps.guard.want != ps.fork; branch && want != (w.arm == 0) {
			return 0, v.fail(fmt.Sprintf("trace: step %d direction", i), b2i(want), b2i(w.arm == 0))
		}
	}
	return next, nil
}

// probeTrace runs the forced tree from root with probe register value
// probe to the validated trace's side exit at step exit (-1: to its
// end) on the compiled side, steps the walk's arms (the off-trace arm
// at the exit) on the reference side, and compares the two.
func (v *Validator) probeTrace(root *trace, exit, next int, probe int64) error {
	x, fr, rt, walk, t := v.x, &v.fr, &v.refTrack, v.walk, &v.forced[0]
	v.probe, v.arm = probe, exit
	rt.R, rt.Path, rt.Trie = probe, append(rt.Path[:0], t.ids[:t.prefix]...), 0
	if t.prefix == 1 {
		rt.Trie = v.ref.Run.Paths.Step(0, t.ids[0])
	}
	v.resetProbe(probe, t.ids[:t.prefix], rt.Trie)

	n := len(t.steps)
	if exit >= 0 {
		n = exit
		g := &t.code[t.steps[exit].guard]
		g.op = mExit
		defer func() { g.op = mNop }()
	}
	ret := root.run(x, fr)
	pre := len(v.path) - len(t.steps) // the ancestors' steps

	var steps, base, icost int64
	step := func(b int, s *SuccSpec) {
		ds, db := v.irCharge(b, s)
		steps, base = steps+ds, base+db
		icost += v.ref.Step(s, rt)
	}
	for _, w := range walk[:pre+n] {
		if w.arm >= 0 {
			step(w.b, &v.spec.Succs[w.b][w.arm])
		}
	}
	wantSucc := next
	switch {
	case exit >= 0:
		w := walk[pre+exit]
		s := &v.spec.Succs[w.b][1-w.arm]
		step(w.b, s)
		wantSucc = s.To
	case t.tail == tailRet:
		v.ref.EndPath(rt)
		steps, base = steps+1, base+v.p.opts.Costs.Term
		wantSucc = -1
		if err := v.checkRet(&v.f.Blocks[walk[len(walk)-1].b].Term); err != nil {
			return v.traceFail(exit, err)
		}
	}
	popped := exit < 0 && t.tail == tailRet
	return v.traceFail(exit, v.compare(ret, wantSucc, steps, base, icost, popped))
}

// traceFail labels a trace probe's divergence with the exit it was
// driven to.
func (v *Validator) traceFail(exit int, err error) error {
	var ve *ValidationError
	if errors.As(err, &ve) {
		if exit >= 0 {
			ve.Field = fmt.Sprintf("trace exit %d: %s", exit, ve.Field)
		} else {
			ve.Field = "trace end: " + ve.Field
		}
	}
	return err
}

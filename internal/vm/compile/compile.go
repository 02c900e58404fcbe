// Package compile is the VM's executor: it specializes each routine of
// an IR program into chained Go closures, eliminating an interpreter's
// per-instruction dispatch and bookkeeping. The dense interpreter in
// internal/vm's tests is the reference it is differentially tested
// against.
//
// Layout of the compiled form:
//
//   - A block's instructions are split into segments at call sites
//     (maximal call-free runs). A segment is ONE closure — built from
//     the run's peephole-fused micro-ops (micro.go), the only lowering
//     of instructions, run by the one micro-op loop or, for a short
//     run, by chained closures — plus a precomputed step count and
//     base cost. A block's trailing compare moves into its branch
//     terminator. The executor charges the whole segment with two
//     additions and one budget compare where the interpreter paid a
//     step increment, a cost addition, a budget compare, and a switch
//     dispatch per instruction. (The budget check errors at the
//     segment boundary exactly when the interpreter would error inside
//     it: steps + len(segment) > MaxSteps.)
//
//   - A block's terminator compiles to its arms, one armConsts per
//     transition: the successor, the charges (the taken-branch penalty
//     and a solo successor's charge folded in), the edge-profile slot,
//     the instrumentation ops (path-register arithmetic folded into
//     branchless mask/add constants, a single counter update into an
//     index fold) and the path-tracking edges. One method, Exec.take,
//     carries out every transition from those constants, metered or
//     not; the executor picks the arm from the block's fused compare or
//     condition register.
//
//   - While a path-collecting run executes, metered or not, its Exec
//     compiles the run's hot Ball-Larus paths into traces (trace.go):
//     each path becomes one micro-op stream, its blocks' runs back to
//     back with exit-if guards and the transitions' effects between
//     them, run by the same loop as block runs, with the transitions'
//     constant work (VM counters included) folded, validated before it
//     is installed.
//
// The compiled Program is immutable and shared: its closures and take
// reach all per-run state through the Exec (globals, arrays, cost
// accumulators) and the frame (registers, path register, trie cursor),
// so one compilation serves every worker and replica. No code
// generation, no unsafe: everything is ordinary Go closures over small
// captured integers and plain constant records, which stay fully
// portable and race-detector friendly.
package compile

import (
	"fmt"
	"math"
	"math/bits"

	"pathprof/internal/cfg"
	"pathprof/internal/ir"
	"pathprof/internal/planir"
)

// CostModel assigns modeled costs to executed operations. It is
// vm.CostModel: the compiled code and the reference interpreter in
// internal/vm's tests charge from the one struct.
type CostModel struct {
	Instr       int64 // per IR instruction
	Term        int64 // per block terminator
	Call        int64 // extra per call (frame setup/teardown)
	RegOp       int64 // r = v and r += v
	CountArray  int64 // count[r]++ against an array
	CountConst  int64 // count[c]++ against an array (no address arith)
	CountHash   int64 // any count against the hash table
	PoisonCheck int64 // the r < 0 test of check-based poisoning
	ColdBump    int64 // incrementing the cold counter after a check
	EdgeCount   int64 // per-branch edge-profiling counter update
	// TakenPenalty charges control transfers to a block other than the
	// next one in layout order (block index + 1): the fetch-redirect
	// cost that makes straight-line code and trace formation pay on
	// real machines.
	TakenPenalty int64
}

// Options fixes the run shape the program is compiled for. With
// Telemetry true every transition adds its constant VM counters, and
// traces add their summed counts, behind one branch; with Telemetry
// false that branch counts nothing (the RunOps fallback for
// check-poisoned streams bumps the Exec's zero, no-op cells). Either
// way the same transitions run and the same traces form. With
// PathHooks false no completed path is handed to a hook.
type Options struct {
	Costs          CostModel
	CollectEdges   bool
	CollectPaths   bool
	EdgeInstrument bool
	Telemetry      bool
	PathHooks      bool
}

// SuccSpec describes one control-flow transition, resolved by the
// engine (vm) from the DAG and the planir artifact: the successor
// block, its canonical edge-profile slot, the lowered op stream, and
// the path-tracking edges. It is the one transition record: the
// compiler lowers it, and translation validation and the reference
// interpreter in internal/vm's tests step through it (Stepper.Step).
type SuccSpec struct {
	To   int
	Back bool // follows a CFG back edge (path truncation)
	// EdgeSlot is the dense edge-counter slot (-1: none); InstrCost is
	// the modeled edge-counting charge the engine resolved for this
	// transition — EdgeCount on instrumented branches under spanning
	// placement, EdgeCount on exactly the probed chords under min-cost
	// placement, zero elsewhere.
	EdgeSlot  int32
	InstrCost int64
	Ops       []planir.Op
	// PathEdge is the real DAG edge to append; ExitDummy/EntryDummy the
	// truncation pair for back edges. Nil when paths are off.
	PathEdge   *cfg.DAGEdge
	ExitDummy  *cfg.DAGEdge
	EntryDummy *cfg.DAGEdge
}

// FuncSpec is one routine's compilation input.
type FuncSpec struct {
	// Succs is indexed by block: [0] the Jump target or Branch taken
	// arm, [1] the Branch else arm.
	Succs [][2]SuccSpec
	// Edges is the routine's DAG edge table (Edges[i].ID == i): paths
	// are tracked as edge IDs, and a path hook's cfg.Path is resolved
	// through it. Nil when paths are off.
	Edges       []*cfg.DAGEdge
	Hash        bool
	PoisonCheck bool
}

// Program is an immutable compiled program, shared across Execs.
type Program struct {
	fns        []fnCode
	opts       Options
	globalInit []int64
	arraySizes []int64
	// prog and specs are the compilation inputs, retained so translation
	// validation (Validate) can replay every compiled transition against
	// the IR terminator and successor spec it was lowered from.
	prog  *ir.Program
	specs []FuncSpec
}

type instrFn func(x *Exec, fr *frame)

// condFn computes a branch condition whose register nothing else
// reads and hands the comparison to the executor as a bool — no 0/1
// materialization and re-test.
type condFn func(x *Exec, fr *frame) bool

type callSite struct {
	fi   int32
	dst  int32
	args []int32
}

// segment is a maximal call-free instruction run: one fused closure,
// charged wholesale.
type segment struct {
	code  instrFn // nil for an empty segment (e.g. a lone call)
	steps int64
	cost  int64
	call  *callSite // executed after code; nil for the final segment
}

type blockCode struct {
	segs []segment
	// arms are the terminator's transitions, which the executor, trace
	// side exits and translation validation (validate.go) all carry out
	// through take: [0] the Jump or Ret, or the Branch's taken arm, [1]
	// the Branch's else arm. The successor code an arm holds is the
	// next block's own: transitions are pointer threaded, with no
	// block-index lookup between them.
	arms [2]armConsts
	// A Branch picks its arm by the fused comparison cond, else by the
	// condition register creg (-1 for any other terminator).
	cond condFn
	creg int32
	// code is the hoisted single segment of a solo block; the executor
	// runs it without the segment loop (or fr.seg bookkeeping). A solo
	// block's step/cost charge is folded into the constant charge of
	// every terminator that enters it (and the owning function's entry
	// precharge), so the executor only compares the budget.
	code instrFn
	solo bool
	// check gates the solo budget compare: an instruction-free block
	// must not error even when terminator increments (which the
	// interpreter never budget-checks) have pushed steps past the
	// limit.
	check bool
	// trace is set only on an Exec's private copy of a trace's head
	// block (see trace.go): entering that copy runs the trace.
	trace *trace
}

// blockTraceSrc is what the trace former (trace.go) needs of a block
// beyond its code.
type blockTraceSrc struct {
	// body is a call-free block's lowered run in a path-collecting
	// build: the micro-ops its code runs, which a trace's stream
	// repeats.
	body []micro
	// test is a Branch's exit-if guard that exits when the branch is
	// taken.
	test micro
}

type fnCode struct {
	name    string
	fi      int32
	nparams int
	nregs   int
	entry   int32
	blocks  []blockCode
	// traceSrc holds, per block, what only the trace former reads,
	// out of the blocks the executor walks.
	traceSrc []blockTraceSrc
	// entrySteps/entryCost precharge the entry block when it is solo,
	// applied as the frame is pushed (transitions into solo blocks
	// precharge the same way, folded into terminator constants).
	entrySteps int64
	entryCost  int64
	// memoTo maps each back-edge transition's slot in the Exec's
	// root-step memo to the loop header it restarts the path at.
	memoTo []int32
}

// New compiles the program for the given specs (one per function, in
// function index order). Call-site arity is validated here, once,
// instead of on every dynamic call.
func New(prog *ir.Program, specs []FuncSpec, opts Options) (*Program, error) {
	if len(specs) != len(prog.Funcs) {
		return nil, fmt.Errorf("compile: %d specs for %d functions", len(specs), len(prog.Funcs))
	}
	p := &Program{
		opts:       opts,
		globalInit: prog.GlobalInit,
		prog:       prog,
		specs:      specs,
		fns:        make([]fnCode, len(prog.Funcs)),
	}
	p.arraySizes = make([]int64, len(prog.Arrays))
	for i, a := range prog.Arrays {
		p.arraySizes[i] = a.Size
	}
	// One lowering scratch buffer serves every routine: no run is
	// longer than the longest block.
	longest := 0
	for _, f := range prog.Funcs {
		for _, b := range f.Blocks {
			longest = max(longest, len(b.Instrs))
		}
	}
	buf := make([]micro, 0, longest)
	for fi := range prog.Funcs {
		c := &comp{prog: prog, opts: &p.opts, spec: &specs[fi], buf: buf}
		fc, err := c.compileFunc(fi)
		if err != nil {
			return nil, err
		}
		p.fns[fi] = fc
	}
	return p, nil
}

// comp compiles one function.
type comp struct {
	prog   *ir.Program
	opts   *Options
	spec   *FuncSpec
	fname  string
	memoTo []int32
	// reads[r] counts reads of register r across the whole function
	// (operands, call arguments, branch conditions, return values).
	// Registers are invisible outside a run, so a fused constant whose
	// register has exactly one read — the instruction it fused into —
	// needs no store at all.
	reads []int32
	// buf is lowerMicros' scratch, reused run after run, with room
	// for the longest run.
	buf []micro
}

// regReads tallies register reads for dead-store elimination in the
// lowering.
func regReads(f *ir.Func) []int32 {
	reads := make([]int32, f.NRegs)
	note := func(r int) {
		if r >= 0 && r < len(reads) {
			reads[r]++
		}
	}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			switch in.Op {
			case ir.Const, ir.LoadG:
				// No register reads.
			case ir.Mov, ir.Neg, ir.Not, ir.LoadA, ir.StoreG, ir.Print:
				note(in.A)
			case ir.StoreA:
				note(in.A)
				note(in.B)
			case ir.Call:
				for _, a := range in.Args {
					note(a)
				}
			default: // binary arithmetic, compares, bit ops, shifts
				note(in.A)
				note(in.B)
			}
		}
		switch b.Term.Kind {
		case ir.Branch:
			note(b.Term.Cond)
		case ir.Ret:
			note(b.Term.Ret)
		}
	}
	return reads
}

func (c *comp) compileFunc(fi int) (fnCode, error) {
	f := c.prog.Funcs[fi]
	if len(c.spec.Succs) != len(f.Blocks) {
		return fnCode{}, fmt.Errorf("compile: %s: %d successor specs for %d blocks",
			f.Name, len(c.spec.Succs), len(f.Blocks))
	}
	c.fname = f.Name
	c.reads = regReads(f)
	fc := fnCode{
		name:     f.Name,
		fi:       int32(fi),
		nparams:  f.NParams,
		nregs:    f.NRegs,
		entry:    int32(f.Entry),
		blocks:   make([]blockCode, len(f.Blocks)),
		traceSrc: make([]blockTraceSrc, len(f.Blocks)),
	}
	// Pass 1 compiles every block's instruction segments, so that pass 2
	// can thread arms directly to successor blockCode pointers and fold
	// solo successors' charges into arm constants.
	for bi, b := range f.Blocks {
		cond := -1
		if b.Term.Kind == ir.Branch {
			cond = b.Term.Cond
		}
		bc := &fc.blocks[bi]
		segs, err := c.compileSegments(b.Instrs, cond, bc, &fc.traceSrc[bi])
		if err != nil {
			return fnCode{}, fmt.Errorf("compile: %s block %d: %w", f.Name, bi, err)
		}
		bc.segs = segs
		if len(segs) == 1 && segs[0].call == nil {
			bc.solo = true
			bc.code = segs[0].code
			bc.check = segs[0].steps > 0
		}
	}
	if eb := &fc.blocks[fc.entry]; eb.solo {
		fc.entrySteps = eb.segs[0].steps
		fc.entryCost = eb.segs[0].cost
	}
	for bi, b := range f.Blocks {
		bc := &fc.blocks[bi]
		bc.creg = -1
		if b.Term.Kind == ir.Branch && bc.cond == nil {
			bc.creg = int32(b.Term.Cond)
			fc.traceSrc[bi].test = micro{op: mXNZ, a: bc.creg}
		}
		c.compileArms(&fc, bi, &b.Term)
	}
	fc.memoTo = c.memoTo
	return fc, nil
}

// compileSegments splits a block's instructions at call sites and
// lowers each call-free run to one closure. A call-free block of a
// path-collecting build, where traces form, keeps its lowered run in
// ts.body. In one whose branch tests register cond (-1:
// not a branch), a trailing compare into cond that nothing else reads
// leaves the run and becomes the branch's bc.cond and ts.test; the
// segment still charges it, so budget errors fall where the
// interpreter's do.
func (c *comp) compileSegments(instrs []ir.Instr, cond int, bc *blockCode, ts *blockTraceSrc) ([]segment, error) {
	cInstr, cCall := c.opts.Costs.Instr, c.opts.Costs.Call
	var segs []segment
	runStart := 0
	flush := func(end int, call *callSite) {
		n := int64(end - runStart)
		seg := segment{steps: n, cost: n * cInstr, call: call}
		ms := c.lowerMicros(instrs[runStart:end])
		solo := call == nil && len(segs) == 0
		if k := len(ms) - 1; solo && k >= 0 && int(ms[k].d) == cond {
			if cf, test, ok := c.microCond(ms[k]); ok {
				bc.cond, ts.test, ms = cf, test, ms[:k]
			}
		}
		// A long run's closure and, in a build that forms traces, a
		// call-free block's trace steps keep one exact-size copy.
		traced := solo && c.opts.CollectPaths && len(ms) > 0
		if len(ms) >= MicroMin || traced {
			ms = append(make([]micro, 0, len(ms)), ms...)
		}
		if traced {
			ts.body = ms
		}
		seg.code = runCode(ms)
		if call != nil {
			seg.steps++
			seg.cost += cInstr + cCall
		}
		segs = append(segs, seg)
	}
	for i := range instrs {
		in := &instrs[i]
		if in.Op != ir.Call {
			continue
		}
		callee := c.prog.Funcs[in.Sym]
		if len(in.Args) != callee.NParams {
			return nil, fmt.Errorf("call %s expects %d args, got %d",
				callee.Name, callee.NParams, len(in.Args))
		}
		args := make([]int32, len(in.Args))
		for j, a := range in.Args {
			args[j] = int32(a)
		}
		flush(i, &callSite{fi: int32(in.Sym), dst: int32(in.Dst), args: args})
		runStart = i + 1
	}
	if runStart < len(instrs) || len(segs) == 0 {
		flush(len(instrs), nil)
	}
	return segs, nil
}

// runCode builds a lowered run's closure: microExec over ms itself,
// which must outlive the lowering's scratch, for a run of at least
// MicroMin micro-ops, seqN over per-micro closures for a shorter one,
// nil for none.
func runCode(ms []micro) instrFn {
	if len(ms) >= MicroMin {
		return microExec(ms)
	}
	var fns [MicroMin - 1]instrFn
	for i := range ms {
		fns[i] = microClosure(ms[i])
	}
	return seqN(fns[:len(ms)])
}

// seqN composes a short run's closures, fewer than MicroMin, into one
// that calls each directly. Every call site holds ONE fixed closure value,
// so every indirect call is monomorphic and branch-predicted — unlike
// a flat loop (or a classic interpreter switch), whose single dispatch
// site mispredicts on every change of target.
func seqN(fns []instrFn) instrFn {
	switch len(fns) {
	case 0:
		return nil
	case 1:
		return fns[0]
	case 2:
		a, b := fns[0], fns[1]
		return func(x *Exec, fr *frame) { a(x, fr); b(x, fr) }
	case 3:
		a, b, cc := fns[0], fns[1], fns[2]
		return func(x *Exec, fr *frame) { a(x, fr); b(x, fr); cc(x, fr) }
	}
	panic(fmt.Sprintf("compile: seqN of %d closures; longer runs go to microExec", len(fns)))
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// safeDiv, safeMod, and wrap are the IR's total arithmetic: division
// and modulo by zero yield 0, MinInt64/-1 yields MinInt64 (modulo 0),
// and array indices wrap modulo the array size. This is the only
// production copy; the reference interpreter in internal/vm's tests
// keeps an independent one, and the two must agree bit for bit.
func safeDiv(a, b int64) int64 {
	if b == 0 {
		return 0
	}
	if a == math.MinInt64 && b == -1 {
		return math.MinInt64
	}
	return a / b
}

func safeMod(a, b int64) int64 {
	if b == 0 {
		return 0
	}
	if a == math.MinInt64 && b == -1 {
		return 0
	}
	return a % b
}

// recip is the reciprocal divK and modK multiply by for a constant
// divisor k > 1: floor((2^64-1)/k), computed once at compile time.
func recip(k int64) uint64 { return ^uint64(0) / uint64(k) }

// divK is safeDiv(a, k) for a constant k > 1 with m = recip(k): the
// quotient of |a| is the high word of |a|*m, which falls short of the
// true quotient by at most one (m > 2^64/k - 2 and |a| <= 2^63, so
// |a|*m/2^64 > |a|/k - 1) and is corrected against the remainder, so
// no hardware divide runs. (k > 1 rules out both of safeDiv's special
// cases.)
func divK(a, k int64, m uint64) int64 {
	q, _ := divModK(a, k, m)
	return q
}

// modK is safeMod(a, k) for a constant k > 1 with m = recip(k).
func modK(a, k int64, m uint64) int64 {
	_, r := divModK(a, k, m)
	return r
}

// divModK returns a/k and a%k, truncated as Go's operators are, for
// k > 1 and m = recip(k).
func divModK(a, k int64, m uint64) (int64, int64) {
	sign := a >> 63                // 0, or -1 for a negative a
	u := uint64((a ^ sign) - sign) // |a|; MinInt64 maps to 2^63
	q, _ := bits.Mul64(u, m)
	r := u - q*uint64(k)
	if r >= uint64(k) {
		q++
		r -= uint64(k)
	}
	return (int64(q) ^ sign) - sign, (int64(r) ^ sign) - sign
}

// divP2 is safeDiv(a, k) for k = 2^n, 1 <= n <= 62, and mask = k-1:
// a negative dividend is biased up by mask, so the arithmetic shift
// truncates toward zero as Go's division does.
func divP2(a int64, n int32, mask int64) int64 {
	return (a + (a>>63)&mask) >> uint(n)
}

// modP2 is safeMod(a, k) for k = 2^n, n >= 1, and mask = k-1: the
// low bits of the biased dividend, less the bias, keep a's sign.
func modP2(a, mask int64) int64 {
	bias := (a >> 63) & mask
	return (a+bias)&mask - bias
}

func wrap(i, size int64) int64 {
	if uint64(i) < uint64(size) {
		return i
	}
	if size == 0 {
		return 0
	}
	i %= size
	if i < 0 {
		i += size
	}
	return i
}

// Package compile is the VM's executor: it specializes each routine of
// an IR program into chained Go closures, eliminating an interpreter's
// per-instruction dispatch and bookkeeping. The dense interpreter in
// internal/vm's tests is the reference it is differentially tested
// against.
//
// Layout of the compiled form:
//
//   - A block's instructions are split into segments at call sites
//     (maximal call-free runs). A segment is ONE fused closure — built
//     by composing per-instruction closures and peephole-fused pairs —
//     plus a precomputed step count and base cost. The executor charges
//     the whole segment with two additions and one budget compare where
//     the interpreter paid a step increment, a cost addition, a budget
//     compare, and a switch dispatch per instruction. (The budget check
//     errors at the segment boundary exactly when the interpreter would
//     error inside it: steps + len(segment) > MaxSteps.)
//
//   - A block's terminator compiles to a closure that fuses successor
//     choice, the taken-branch penalty, edge-profile slot bump,
//     instrumentation ops (path-register arithmetic folded into
//     branchless mask/add constants, counter updates specialized per
//     table kind), and path tracking (incremental trie stepping) into
//     one straight-line call per transition. Constant costs fold into
//     one addition at compile time; the telemetry nil-sink branch is
//     resolved at compile time by emitting telemetry-free variants of
//     every fused closure.
//
// The compiled Program is immutable and shared: closures reach all
// per-run state through the Exec (globals, arrays, cost accumulators)
// and the frame (registers, path register, trie cursor), so one
// compilation serves every worker and replica. No code generation, no
// unsafe: everything is ordinary Go closures over small captured
// integers, which the runtime can inline into and which stay fully
// portable and race-detector friendly.
package compile

import (
	"fmt"
	"math"

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

// Options fixes the run shape the program is compiled for. Telemetry
// and path hooks are compile-time decisions: with Telemetry false the
// fused closures carry no counter-bump code (the RunOps fallback for
// check-poisoned streams bumps the Exec's zero, no-op cells), and with
// PathHooks false no hook-dispatch code is emitted.
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

// termFn executes a block's terminator and returns the next block's
// code directly (nil for a routine return): transitions are pointer
// threaded, with no block-index lookup between them.
type termFn func(x *Exec, fr *frame) *blockCode

// condFn computes a branch condition, still writing the condition
// register (later code may read it), and hands the comparison to the
// terminator as a bool — no 0/1 materialization and re-test.
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
	term termFn
	// arms retains the per-successor transition closures the terminator
	// dispatches between, so translation validation (validate.go) can
	// drive each arm directly: [0] the Jump/Ret closure or Branch taken
	// arm, [1] the Branch else arm.
	arms [2]termFn
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
}

type fnCode struct {
	name    string
	fi      int32
	nparams int
	nregs   int
	entry   int32
	blocks  []blockCode
	// entrySteps/entryCost precharge the entry block when it is solo,
	// applied as the frame is pushed (transitions into solo blocks
	// precharge the same way, folded into terminator constants).
	entrySteps int64
	entryCost  int64
	// memoN counts the function's back-edge transitions, each holding a
	// slot in the Exec's root-step memo.
	memoN int
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
	for fi := range prog.Funcs {
		c := &comp{prog: prog, opts: &p.opts, spec: &specs[fi]}
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
	prog  *ir.Program
	opts  *Options
	spec  *FuncSpec
	fname string
	memoN int
	// reads[r] counts reads of register r across the whole function
	// (operands, call arguments, branch conditions, return values).
	// Registers are invisible outside a run, so a fused constant whose
	// register has exactly one read — the instruction it fused into —
	// needs no store at all.
	reads []int32
}

// regReads tallies register reads for dead-store elimination in the
// fusers.
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
		name:    f.Name,
		fi:      int32(fi),
		nparams: f.NParams,
		nregs:   f.NRegs,
		entry:   int32(f.Entry),
		blocks:  make([]blockCode, len(f.Blocks)),
	}
	// Pass 1 compiles every block's instruction segments, so that pass 2
	// can thread terminators directly to successor blockCode pointers
	// and fold solo successors' charges into terminator constants.
	conds := make([]condFn, len(f.Blocks))
	for bi, b := range f.Blocks {
		instrs := b.Instrs
		trim := 0
		if b.Term.Kind == ir.Branch && !hasCall(instrs) {
			conds[bi], trim = c.fuseCond(instrs, b.Term.Cond)
			instrs = instrs[:len(instrs)-trim]
		}
		segs, err := c.compileSegments(instrs)
		if err != nil {
			return fnCode{}, fmt.Errorf("compile: %s block %d: %w", f.Name, bi, err)
		}
		if trim > 0 {
			// The extracted comparison still counts as the block's
			// trailing instruction(s): charged with the segment (so
			// budget-error timing matches the interpreter), executed in
			// the terminator.
			segs[len(segs)-1].steps += int64(trim)
			segs[len(segs)-1].cost += int64(trim) * c.opts.Costs.Instr
		}
		bc := &fc.blocks[bi]
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
		fc.blocks[bi].term = c.compileTerm(&fc, bi, &b.Term, conds[bi])
	}
	fc.memoN = c.memoN
	return fc, nil
}

func hasCall(instrs []ir.Instr) bool {
	for i := range instrs {
		if instrs[i].Op == ir.Call {
			return true
		}
	}
	return false
}

// compileSegments splits a block's instructions at call sites and
// fuses each call-free run into one closure.
func (c *comp) compileSegments(instrs []ir.Instr) ([]segment, error) {
	cInstr, cCall := c.opts.Costs.Instr, c.opts.Costs.Call
	var segs []segment
	runStart := 0
	flush := func(end int, call *callSite) {
		n := int64(end - runStart)
		seg := segment{steps: n, cost: n * cInstr, call: call}
		seg.code = c.fuseRun(instrs[runStart:end])
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

// fuseRun lowers a call-free instruction run to one closure. Long
// simple runs decode to a micro-op array executed by a single closure
// (see micro.go); shorter runs — and runs holding an instruction the
// micro loop excludes — compose per-instruction closures: peephole
// fusion first (Const feeding the next instruction's B operand,
// global read-modify-write), then a branching-factor-4 tree of the
// remaining closures so every call site stays monomorphic.
func (c *comp) fuseRun(instrs []ir.Instr) instrFn {
	if len(instrs) == 0 {
		return nil
	}
	if len(instrs) >= microMin {
		if ms := c.lowerMicros(instrs); ms != nil {
			return microExec(ms)
		}
	}
	fns := make([]instrFn, 0, len(instrs))
	for i := 0; i < len(instrs); i++ {
		if fused, n := c.fuseGlobalRMW(instrs[i:]); fused != nil {
			fns = append(fns, fused)
			i += n - 1
			continue
		}
		if i+1 < len(instrs) {
			if fused := c.fusePair(&instrs[i], &instrs[i+1]); fused != nil {
				fns = append(fns, fused)
				i++
				continue
			}
		}
		fns = append(fns, c.instrClosure(&instrs[i]))
	}
	return seqN(fns)
}

// fuseGlobalRMW recognizes the read-modify-write of a global —
// LoadG g; [Const k;] binop; StoreG g — the canonical loop counter and
// accumulator update, and collapses the whole run into one closure
// touching only the global. It applies only when none of the involved
// registers is read anywhere else (per regReads), so no register
// store is owed; otherwise the run falls back to the ordinary fusers.
// Returns the closure and the instruction count it absorbed.
func (c *comp) fuseGlobalRMW(instrs []ir.Instr) (instrFn, int) {
	if len(instrs) < 3 || instrs[0].Op != ir.LoadG {
		return nil, 0
	}
	g, r1 := instrs[0].Sym, instrs[0].Dst
	if c.reads[r1] != 1 {
		return nil, 0
	}
	// Constant-operand form: LoadG, Const, op, StoreG.
	if len(instrs) >= 4 && instrs[1].Op == ir.Const {
		cst, op, st := &instrs[1], &instrs[2], &instrs[3]
		if st.Op == ir.StoreG && st.Sym == g && st.A == op.Dst &&
			op.A == r1 && op.B == cst.Dst && cst.Dst != r1 &&
			c.reads[cst.Dst] == 1 && c.reads[op.Dst] == 1 {
			k := cst.Imm
			switch op.Op {
			case ir.Add:
				return func(x *Exec, fr *frame) { x.globals[g] += k }, 4
			case ir.Sub:
				return func(x *Exec, fr *frame) { x.globals[g] -= k }, 4
			case ir.Mul:
				return func(x *Exec, fr *frame) { x.globals[g] *= k }, 4
			case ir.BAnd:
				return func(x *Exec, fr *frame) { x.globals[g] &= k }, 4
			case ir.BOr:
				return func(x *Exec, fr *frame) { x.globals[g] |= k }, 4
			case ir.BXor:
				return func(x *Exec, fr *frame) { x.globals[g] ^= k }, 4
			}
		}
		return nil, 0
	}
	// Register-operand form: LoadG, op, StoreG.
	op, st := &instrs[1], &instrs[2]
	if st.Op == ir.StoreG && st.Sym == g && st.A == op.Dst &&
		op.A == r1 && op.B != r1 && c.reads[op.Dst] == 1 {
		b := op.B
		switch op.Op {
		case ir.Add:
			return func(x *Exec, fr *frame) { x.globals[g] += fr.regs[b] }, 3
		case ir.Sub:
			return func(x *Exec, fr *frame) { x.globals[g] -= fr.regs[b] }, 3
		case ir.Mul:
			return func(x *Exec, fr *frame) { x.globals[g] *= fr.regs[b] }, 3
		}
	}
	return nil, 0
}

// seqN composes closures into one as a branching-factor-4 tree: runs
// up to four unroll into direct calls, longer runs group into quads
// and recurse on the quads. Every call site in the tree holds ONE
// fixed closure value, so every indirect call is monomorphic and
// branch-predicted — unlike a flat loop (or a classic interpreter
// switch), whose single dispatch site mispredicts on every change of
// target. The tree adds ~1/3 extra calls per fused unit and wins that
// back severalfold on straight-line blocks.
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
	case 4:
		a, b, cc, d := fns[0], fns[1], fns[2], fns[3]
		return func(x *Exec, fr *frame) { a(x, fr); b(x, fr); cc(x, fr); d(x, fr) }
	}
	quads := make([]instrFn, 0, (len(fns)+3)/4)
	for len(fns) > 4 {
		quads = append(quads, seqN(fns[:4]))
		fns = fns[4:]
	}
	quads = append(quads, seqN(fns))
	return seqN(quads)
}

// fusePair recognizes a Const that feeds the very next instruction —
// the dominant pattern lowered from `i + 1`, `i < N`, `x & MASK`,
// `x >> K`, stores of literals — and emits one closure for the pair.
// The constant's register is written only when something else reads it
// (wt); the common fresh-temp constant is read exactly once, by the
// instruction it fused into, and its store is dead.
// Returns nil when the pair does not fuse.
func (c *comp) fusePair(a, b *ir.Instr) instrFn {
	if a.Op != ir.Const {
		return nil
	}
	t, k := a.Dst, a.Imm
	wt := c.reads[t] > 1
	if b.B == t {
		d, s := b.Dst, b.A
		// If the binop reads the constant on its A side too, r[s] must
		// see the new value; writing t first makes that hold in every
		// variant.
		switch b.Op {
		case ir.Add:
			return func(x *Exec, fr *frame) {
				r := fr.regs
				if wt {
					r[t] = k
				}
				r[d] = r[s] + k
			}
		case ir.Sub:
			return func(x *Exec, fr *frame) {
				r := fr.regs
				if wt {
					r[t] = k
				}
				r[d] = r[s] - k
			}
		case ir.Mul:
			return func(x *Exec, fr *frame) {
				r := fr.regs
				if wt {
					r[t] = k
				}
				r[d] = r[s] * k
			}
		case ir.Eq:
			return func(x *Exec, fr *frame) {
				r := fr.regs
				if wt {
					r[t] = k
				}
				r[d] = b2i(r[s] == k)
			}
		case ir.Ne:
			return func(x *Exec, fr *frame) {
				r := fr.regs
				if wt {
					r[t] = k
				}
				r[d] = b2i(r[s] != k)
			}
		case ir.Lt:
			return func(x *Exec, fr *frame) {
				r := fr.regs
				if wt {
					r[t] = k
				}
				r[d] = b2i(r[s] < k)
			}
		case ir.Le:
			return func(x *Exec, fr *frame) {
				r := fr.regs
				if wt {
					r[t] = k
				}
				r[d] = b2i(r[s] <= k)
			}
		case ir.Gt:
			return func(x *Exec, fr *frame) {
				r := fr.regs
				if wt {
					r[t] = k
				}
				r[d] = b2i(r[s] > k)
			}
		case ir.Ge:
			return func(x *Exec, fr *frame) {
				r := fr.regs
				if wt {
					r[t] = k
				}
				r[d] = b2i(r[s] >= k)
			}
		case ir.BAnd:
			return func(x *Exec, fr *frame) {
				r := fr.regs
				if wt {
					r[t] = k
				}
				r[d] = r[s] & k
			}
		case ir.BOr:
			return func(x *Exec, fr *frame) {
				r := fr.regs
				if wt {
					r[t] = k
				}
				r[d] = r[s] | k
			}
		case ir.BXor:
			return func(x *Exec, fr *frame) {
				r := fr.regs
				if wt {
					r[t] = k
				}
				r[d] = r[s] ^ k
			}
		case ir.Shl:
			sh := uint(k & 63)
			return func(x *Exec, fr *frame) {
				r := fr.regs
				if wt {
					r[t] = k
				}
				r[d] = r[s] << sh
			}
		case ir.Shr:
			sh := uint(k & 63)
			return func(x *Exec, fr *frame) {
				r := fr.regs
				if wt {
					r[t] = k
				}
				r[d] = r[s] >> sh
			}
		case ir.StoreA:
			// Storing the literal: value operand is B.
			sym := b.Sym
			return func(x *Exec, fr *frame) {
				r := fr.regs
				if wt {
					r[t] = k
				}
				if arr := x.arrays[sym]; len(arr) > 0 {
					arr[wrap(r[s], int64(len(arr)))] = k
				}
			}
		}
		return nil
	}
	if b.A == t {
		switch b.Op {
		case ir.Mov:
			d := b.Dst
			return func(x *Exec, fr *frame) {
				r := fr.regs
				if wt {
					r[t] = k
				}
				r[d] = k
			}
		case ir.StoreG:
			g := b.Sym
			return func(x *Exec, fr *frame) {
				if wt {
					fr.regs[t] = k
				}
				x.globals[g] = k
			}
		}
	}
	return nil
}

// fuseCond extracts a block-trailing comparison that writes the branch
// condition into the terminator itself: `i < N; branch` becomes one
// closure computing the compare and dispatching on the native bool,
// instead of a closure materializing 0/1 and a terminator re-testing
// it. The condition register is still written. Only call-free blocks
// qualify (the caller guarantees that), so the absorbed instructions
// stay charged to the block's single segment. Like fusePair, the
// condition register (and the absorbed constant's) is stored only when
// something besides this comparison-and-branch reads it; the common
// fresh compare temp never touches memory. Returns the closure and
// how many trailing instructions it absorbed (0 = no fusion).
func (c *comp) fuseCond(instrs []ir.Instr, cond int) (condFn, int) {
	n := len(instrs)
	if n == 0 {
		return nil, 0
	}
	last := &instrs[n-1]
	if last.Dst != cond {
		return nil, 0
	}
	wd := c.reads[last.Dst] > 1
	if n >= 2 {
		if a := &instrs[n-2]; a.Op == ir.Const && last.B == a.Dst {
			wt := c.reads[a.Dst] > 1
			if f := condCmpConst(last.Op, a.Dst, a.Imm, last.Dst, last.A, wt, wd); f != nil {
				return f, 2
			}
		}
	}
	if f := condCmp(last.Op, last.Dst, last.A, last.B, wd); f != nil {
		return f, 1
	}
	return nil, 0
}

// condCmp lowers a comparison instruction to a condFn. Nil for
// non-comparison opcodes.
func condCmp(op ir.Opcode, d, a, b int, wd bool) condFn {
	switch op {
	case ir.Eq:
		return func(x *Exec, fr *frame) bool {
			r := fr.regs
			v := r[a] == r[b]
			if wd {
				r[d] = b2i(v)
			}
			return v
		}
	case ir.Ne:
		return func(x *Exec, fr *frame) bool {
			r := fr.regs
			v := r[a] != r[b]
			if wd {
				r[d] = b2i(v)
			}
			return v
		}
	case ir.Lt:
		return func(x *Exec, fr *frame) bool {
			r := fr.regs
			v := r[a] < r[b]
			if wd {
				r[d] = b2i(v)
			}
			return v
		}
	case ir.Le:
		return func(x *Exec, fr *frame) bool {
			r := fr.regs
			v := r[a] <= r[b]
			if wd {
				r[d] = b2i(v)
			}
			return v
		}
	case ir.Gt:
		return func(x *Exec, fr *frame) bool {
			r := fr.regs
			v := r[a] > r[b]
			if wd {
				r[d] = b2i(v)
			}
			return v
		}
	case ir.Ge:
		return func(x *Exec, fr *frame) bool {
			r := fr.regs
			v := r[a] >= r[b]
			if wd {
				r[d] = b2i(v)
			}
			return v
		}
	case ir.Not:
		return func(x *Exec, fr *frame) bool {
			r := fr.regs
			v := r[a] == 0
			if wd {
				r[d] = b2i(v)
			}
			return v
		}
	}
	return nil
}

// condCmpConst lowers a Const feeding a comparison's B operand plus
// the comparison into one condFn; like fusePair, the constant register
// is written first so an A-side read of it sees the new value.
func condCmpConst(op ir.Opcode, t int, k int64, d, s int, wt, wd bool) condFn {
	switch op {
	case ir.Eq:
		return func(x *Exec, fr *frame) bool {
			r := fr.regs
			if wt {
				r[t] = k
			}
			v := r[s] == k
			if wd {
				r[d] = b2i(v)
			}
			return v
		}
	case ir.Ne:
		return func(x *Exec, fr *frame) bool {
			r := fr.regs
			if wt {
				r[t] = k
			}
			v := r[s] != k
			if wd {
				r[d] = b2i(v)
			}
			return v
		}
	case ir.Lt:
		return func(x *Exec, fr *frame) bool {
			r := fr.regs
			if wt {
				r[t] = k
			}
			v := r[s] < k
			if wd {
				r[d] = b2i(v)
			}
			return v
		}
	case ir.Le:
		return func(x *Exec, fr *frame) bool {
			r := fr.regs
			if wt {
				r[t] = k
			}
			v := r[s] <= k
			if wd {
				r[d] = b2i(v)
			}
			return v
		}
	case ir.Gt:
		return func(x *Exec, fr *frame) bool {
			r := fr.regs
			if wt {
				r[t] = k
			}
			v := r[s] > k
			if wd {
				r[d] = b2i(v)
			}
			return v
		}
	case ir.Ge:
		return func(x *Exec, fr *frame) bool {
			r := fr.regs
			if wt {
				r[t] = k
			}
			v := r[s] >= k
			if wd {
				r[d] = b2i(v)
			}
			return v
		}
	}
	return nil
}

// instrClosure lowers one instruction. Each closure captures only the
// operand indices it needs; all run state comes in through x and fr.
func (c *comp) instrClosure(in *ir.Instr) instrFn {
	d, a, b := in.Dst, in.A, in.B
	switch in.Op {
	case ir.Const:
		k := in.Imm
		return func(x *Exec, fr *frame) { fr.regs[d] = k }
	case ir.Mov:
		return func(x *Exec, fr *frame) { fr.regs[d] = fr.regs[a] }
	case ir.Add:
		return func(x *Exec, fr *frame) { r := fr.regs; r[d] = r[a] + r[b] }
	case ir.Sub:
		return func(x *Exec, fr *frame) { r := fr.regs; r[d] = r[a] - r[b] }
	case ir.Mul:
		return func(x *Exec, fr *frame) { r := fr.regs; r[d] = r[a] * r[b] }
	case ir.Div:
		return func(x *Exec, fr *frame) { r := fr.regs; r[d] = safeDiv(r[a], r[b]) }
	case ir.Mod:
		return func(x *Exec, fr *frame) { r := fr.regs; r[d] = safeMod(r[a], r[b]) }
	case ir.Neg:
		return func(x *Exec, fr *frame) { r := fr.regs; r[d] = -r[a] }
	case ir.Not:
		return func(x *Exec, fr *frame) { r := fr.regs; r[d] = b2i(r[a] == 0) }
	case ir.Eq:
		return func(x *Exec, fr *frame) { r := fr.regs; r[d] = b2i(r[a] == r[b]) }
	case ir.Ne:
		return func(x *Exec, fr *frame) { r := fr.regs; r[d] = b2i(r[a] != r[b]) }
	case ir.Lt:
		return func(x *Exec, fr *frame) { r := fr.regs; r[d] = b2i(r[a] < r[b]) }
	case ir.Le:
		return func(x *Exec, fr *frame) { r := fr.regs; r[d] = b2i(r[a] <= r[b]) }
	case ir.Gt:
		return func(x *Exec, fr *frame) { r := fr.regs; r[d] = b2i(r[a] > r[b]) }
	case ir.Ge:
		return func(x *Exec, fr *frame) { r := fr.regs; r[d] = b2i(r[a] >= r[b]) }
	case ir.BAnd:
		return func(x *Exec, fr *frame) { r := fr.regs; r[d] = r[a] & r[b] }
	case ir.BOr:
		return func(x *Exec, fr *frame) { r := fr.regs; r[d] = r[a] | r[b] }
	case ir.BXor:
		return func(x *Exec, fr *frame) { r := fr.regs; r[d] = r[a] ^ r[b] }
	case ir.Shl:
		return func(x *Exec, fr *frame) { r := fr.regs; r[d] = r[a] << uint(r[b]&63) }
	case ir.Shr:
		return func(x *Exec, fr *frame) { r := fr.regs; r[d] = r[a] >> uint(r[b]&63) }
	case ir.LoadG:
		g := in.Sym
		return func(x *Exec, fr *frame) { fr.regs[d] = x.globals[g] }
	case ir.StoreG:
		g := in.Sym
		return func(x *Exec, fr *frame) { x.globals[g] = fr.regs[a] }
	case ir.LoadA:
		s := in.Sym
		return func(x *Exec, fr *frame) {
			arr := x.arrays[s]
			if len(arr) == 0 {
				fr.regs[d] = 0
				return
			}
			fr.regs[d] = arr[wrap(fr.regs[a], int64(len(arr)))]
		}
	case ir.StoreA:
		s := in.Sym
		return func(x *Exec, fr *frame) {
			arr := x.arrays[s]
			if len(arr) > 0 {
				arr[wrap(fr.regs[a], int64(len(arr)))] = fr.regs[b]
			}
		}
	case ir.Print:
		return func(x *Exec, fr *frame) {
			if x.out != nil {
				fmt.Fprintf(x.out, "%d\n", fr.regs[a])
			}
		}
	}
	// ir.Call is handled by segmentation; anything else is a no-op, as
	// in the interpreter's switch default.
	return func(x *Exec, fr *frame) {}
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

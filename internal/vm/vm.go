// Package vm executes IR programs deterministically while modeling
// runtime cost, collecting exact edge and path profiles, and executing
// path-profiling instrumentation plans.
//
// The VM stands in for the paper's AlphaServer measurements: the cost
// model charges one unit per executed IR statement and a fixed cost
// per instrumentation operation, weighted by memory traffic: counter
// updates are read-modify-writes of profiling tables that miss caches,
// and hash updates cost five times array updates per Joshi et al.'s
// estimate. Profiling overhead is the ratio of instrumentation cost to
// base program cost and is exactly reproducible.
//
// Ground truth: the VM records the exact Ball-Larus path profile of
// the run (paths truncate at back edges and routine exits; calls
// suspend the caller's path), which the evaluation uses as the actual
// path profile that PP would measure.
//
// Two executors implement these semantics bit-identically. The default
// (BackendCompiled, the zero value) runs each routine as threaded code
// from internal/vm/compile, translation-validated before it runs. The
// dense interpreter (BackendDense) is the reference the compiled code
// is differentially tested against.
//
// The interpreter is built for throughput: prepare compiles every
// block terminator into a dense successor table (per-transition state
// is a slice index away, with no map lookups on the hot path), frames
// and their register/path slices are pooled across calls, and edge
// counts go to dense profile slots. A steady-state transition performs
// zero allocations.
package vm

import (
	"errors"
	"fmt"
	"io"
	"math"

	"pathprof/internal/cfg"
	"pathprof/internal/instr"
	"pathprof/internal/ir"
	"pathprof/internal/planir"
	"pathprof/internal/profile"
	"pathprof/internal/telemetry"
)

// CostModel assigns costs to executed operations.
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

// DefaultCosts returns the cost model used throughout the evaluation.
func DefaultCosts() CostModel {
	return CostModel{
		Instr: 1, Term: 1, Call: 5,
		RegOp: 2, CountArray: 6, CountConst: 4, CountHash: 30,
		PoisonCheck: 2, ColdBump: 3, EdgeCount: 3, TakenPenalty: 1,
	}
}

// Options configures a run.
type Options struct {
	Costs CostModel
	// UseZeroCosts runs with Costs exactly as given even when it is the
	// zero CostModel. Without it, a zero Costs is replaced by
	// DefaultCosts(), so an intentionally free execution (e.g. counting
	// steps without modeling cost) needs this escape hatch.
	UseZeroCosts bool
	// Entry is the function to run (default "main"); Args its
	// arguments.
	Entry string
	Args  []int64
	// CollectEdges/CollectPaths enable exact (cost-free) profile
	// collection.
	CollectEdges bool
	CollectPaths bool
	// EdgeInstrument charges the cost of software edge-profiling
	// counters on branch transitions.
	EdgeInstrument bool
	// Plans maps function names to instrumentation plans; their ops
	// execute on control-flow transitions with modeled cost.
	Plans map[string]*instr.Plan
	// PathHook, if set with CollectPaths, receives every completed
	// Ball-Larus path in execution order (the stream online predictors
	// like Dynamo's NET consume). The path slice is reused; copy it if
	// retained.
	PathHook func(fn string, p cfg.Path)
	// PathHookFor, if set, gives each RunReplicated worker a private
	// path hook: all of worker w's replicas use PathHookFor(w), so
	// online predictors keep per-shard state with no synchronization and
	// fan in after the run (netprof.Predictor.Merge). It takes
	// precedence over PathHook in RunReplicated; Run ignores it.
	PathHookFor func(worker int) func(fn string, p cfg.Path)
	// Sink, if set, supplies the run's profile containers — edge/path
	// profiles and counter tables — in place of freshly allocated ones,
	// so successive runs accumulate into shared state. This is the
	// sharded-collection fast path: each worker feeds its own
	// profile.Shard through the ordinary BumpSlot/Add/Inc operations
	// (no atomics anywhere on the hot path) and the collector merges
	// shards off the hot path. Result.Edges/Paths/Tables then alias the
	// sink's containers.
	Sink ProfileSink
	// MaxSteps aborts runaway programs (0 = default limit).
	MaxSteps int64
	// Output receives print() values; nil discards them.
	Output io.Writer
	// Guard, if set, puts RunReplicated into guarded mode: replica
	// panics are recovered, pre-run faults retried, and failing shards
	// quarantined out of the merge instead of killing the run. A nil
	// Guard preserves the strict fail-fast behavior. Run ignores it.
	Guard *GuardConfig
	// Metrics, if set, receives hot-loop counters (transitions, ops,
	// table increments, completed paths). Nil is the no-op sink: every
	// bump site degrades to one predictable nil-check branch with zero
	// allocations. MetricsWorker selects the metric cell the run writes;
	// RunReplicated assigns each worker its own.
	Metrics       *telemetry.VMMetrics
	MetricsWorker int
	// Trace, if set, receives runtime decision events (RunReplicated
	// shard quarantines); TraceUnit labels them.
	Trace     *telemetry.Trace
	TraceUnit string
	// Backend selects the execution engine: BackendCompiled (the zero
	// value, the default) runs threaded code specialized per routine
	// (internal/vm/compile); BackendDense interprets over dense
	// successor tables and is the reference. The two produce
	// bit-identical results, profiles, and modeled costs.
	// Building a compiled engine always runs translation validation:
	// every compiled routine is driven against the spec it was lowered
	// from and proven effect-equivalent (compile.Validate).
	Backend Backend
}

// Result is the outcome of a run.
type Result struct {
	Ret       int64
	BaseCost  int64 // program cost without instrumentation
	InstrCost int64 // added instrumentation cost
	Steps     int64 // executed instructions + terminators
	DynCalls  int64 // executed call instructions
	Edges     map[string]*profile.EdgeProfile
	Paths     map[string]*profile.PathProfile
	Tables    map[string]*profile.Table
	// DAGs holds the per-routine DAG used for path tracking, so
	// callers can interpret the recorded paths (branch counts etc.).
	DAGs map[string]*cfg.DAG
	// ValidateUs reports per-routine translation-validation wall time
	// in microseconds (compiled backend only; nil otherwise). It is engine-build work, surfaced on the Result so
	// reporting tools can attribute it.
	ValidateUs map[string]int64
}

// Cost returns the total modeled cost.
func (r *Result) Cost() int64 { return r.BaseCost + r.InstrCost }

// Snapshot views the run's profiles as a profile.Snapshot, the
// currency of merging, fingerprinting, and durable persistence
// (internal/snapshot).
func (r *Result) Snapshot() *profile.Snapshot {
	return &profile.Snapshot{Edges: r.Edges, Paths: r.Paths, Tables: r.Tables}
}

// Overhead returns instrumentation cost relative to base cost.
func (r *Result) Overhead() float64 {
	if r.BaseCost == 0 {
		return 0
	}
	return float64(r.InstrCost) / float64(r.BaseCost)
}

// ErrMaxSteps is returned when the step budget is exhausted.
var ErrMaxSteps = errors.New("vm: step budget exhausted")

const defaultMaxSteps = int64(2_000_000_000)

// succRT is the precompiled state of one control-flow transition: what
// the interpreter needs when a terminator selects this successor, with
// every map lookup done once in prepare.
type succRT struct {
	to        int
	edgeSlot  int32 // dense edge-profile slot; -1 when edges are off
	back      bool  // transition follows a CFG back edge
	takenCost int64 // TakenPenalty when to != from+1
	instrCost int64 // EdgeCount under EdgeInstrument on branches
	ops       []planir.Op
	// Path tracking: real DAG edge to append, or the dummy pair that
	// truncates and restarts the path at a back edge.
	pathEdge   *cfg.DAGEdge
	exitDummy  *cfg.DAGEdge
	entryDummy *cfg.DAGEdge
}

// blockRT holds a block's successor table: succ[0] is the Jump target
// or the Branch taken-arm, succ[1] the Branch else-arm.
type blockRT struct {
	succ [2]succRT
}

// funcRT is one routine's binding-level state: the engine's immutable
// successor template joined with this worker's profile containers.
type funcRT struct {
	fn    *ir.Func
	d     *cfg.DAG
	table *profile.Table

	blocks []blockRT
	// hash/poisonCheck mirror plan fields for the op interpreter.
	hash        bool
	poisonCheck bool

	edges *profile.EdgeProfile
	paths *profile.PathProfile
}

type frame struct {
	rt      *funcRT
	regs    []int64
	block   int
	pc      int
	r       int64 // path register
	path    cfg.Path
	callDst int // caller register receiving the return value
}

// Run executes the program under the given options. It is
// NewEngine + one run; callers executing the same program repeatedly
// (replication, benchmarking) should build the Engine once instead.
func Run(prog *ir.Program, opts Options) (*Result, error) {
	e, err := NewEngine(prog, opts)
	if err != nil {
		return nil, err
	}
	return e.Run()
}

type machine struct {
	prog  *ir.Program
	opts  *Options // the engine's defaulted options, shared read-only
	entry int
	res   *Result
	// pathHook is this worker's hook (Options.PathHook, or
	// PathHookFor(worker) under RunReplicated).
	pathHook func(fn string, p cfg.Path)
	globals  []int64
	arrays   [][]int64
	rts      []*funcRT
	pool     []*frame // recycled frames; regs/path capacity is retained
	// tel is this run's private view of the telemetry counters; the
	// zero VMCells (no registry installed) makes every bump a no-op.
	tel telemetry.VMCells
}

// run executes one replica: restore program state, run, report. The
// machine itself — successor tables, pooled frames, containers — is
// reused across a worker's replicas.
func (m *machine) run(args []int64, b *binding) (*Result, error) {
	copy(m.globals, m.prog.GlobalInit)
	for _, a := range m.arrays {
		for i := range a {
			a[i] = 0
		}
	}
	m.res = &Result{Edges: b.edges, Paths: b.paths, Tables: b.tables, DAGs: b.dags}
	ret, err := m.exec(m.entry, args)
	if err != nil {
		return nil, err
	}
	m.res.Ret = ret
	return m.res, nil
}

// newFrame pushes a pooled frame for function fi. Register and path
// slices are recycled across calls; registers are zeroed.
func (m *machine) newFrame(fi, callDst int) *frame {
	f := m.prog.Funcs[fi]
	var fr *frame
	if n := len(m.pool); n > 0 {
		fr = m.pool[n-1]
		m.pool = m.pool[:n-1]
	} else {
		fr = &frame{}
	}
	fr.rt = m.rts[fi]
	fr.block = f.Entry
	fr.pc = 0
	fr.r = 0
	fr.callDst = callDst
	if cap(fr.regs) < f.NRegs {
		fr.regs = make([]int64, f.NRegs)
	} else {
		fr.regs = fr.regs[:f.NRegs]
		for i := range fr.regs {
			fr.regs[i] = 0
		}
	}
	fr.path = fr.path[:0]
	if fr.rt.edges != nil {
		fr.rt.edges.BumpCalls()
	}
	return fr
}

// free returns a popped frame to the pool.
func (m *machine) free(fr *frame) {
	fr.rt = nil
	m.pool = append(m.pool, fr)
}

// exec runs function fnIdx with the given arguments to completion.
func (m *machine) exec(fnIdx int, args []int64) (int64, error) {
	costs := &m.opts.Costs
	cInstr, cTerm, cCall := costs.Instr, costs.Term, costs.Call
	maxSteps := m.opts.MaxSteps
	var steps, base int64 // flushed to m.res on successful completion

	entry := m.prog.Funcs[fnIdx]
	if len(args) != entry.NParams {
		return 0, fmt.Errorf("vm: %s expects %d args, got %d", entry.Name, entry.NParams, len(args))
	}
	var stack []*frame
	fr := m.newFrame(fnIdx, -1)
	copy(fr.regs, args)
	stack = append(stack, fr)

	var retVal int64
	for len(stack) > 0 {
		fr := stack[len(stack)-1]
		rt := fr.rt
		b := rt.fn.Blocks[fr.block]
		instrs := b.Instrs

		// Execute remaining instructions of the current block.
		callMade := false
		for fr.pc < len(instrs) {
			in := &instrs[fr.pc]
			fr.pc++
			steps++
			base += cInstr
			if steps > maxSteps {
				return 0, ErrMaxSteps
			}
			if in.Op == ir.Call {
				m.res.DynCalls++
				base += cCall
				callee := m.prog.Funcs[in.Sym]
				if len(in.Args) != callee.NParams {
					return 0, fmt.Errorf("vm: %s expects %d args, got %d",
						callee.Name, callee.NParams, len(in.Args))
				}
				nf := m.newFrame(in.Sym, in.Dst)
				for i, a := range in.Args {
					nf.regs[i] = fr.regs[a]
				}
				stack = append(stack, nf)
				callMade = true
				break
			}
			r := fr.regs
			switch in.Op {
			case ir.Const:
				r[in.Dst] = in.Imm
			case ir.Mov:
				r[in.Dst] = r[in.A]
			case ir.Add:
				r[in.Dst] = r[in.A] + r[in.B]
			case ir.Sub:
				r[in.Dst] = r[in.A] - r[in.B]
			case ir.Mul:
				r[in.Dst] = r[in.A] * r[in.B]
			case ir.Div:
				r[in.Dst] = safeDiv(r[in.A], r[in.B])
			case ir.Mod:
				r[in.Dst] = safeMod(r[in.A], r[in.B])
			case ir.Neg:
				r[in.Dst] = -r[in.A]
			case ir.Not:
				r[in.Dst] = b2i(r[in.A] == 0)
			case ir.Eq:
				r[in.Dst] = b2i(r[in.A] == r[in.B])
			case ir.Ne:
				r[in.Dst] = b2i(r[in.A] != r[in.B])
			case ir.Lt:
				r[in.Dst] = b2i(r[in.A] < r[in.B])
			case ir.Le:
				r[in.Dst] = b2i(r[in.A] <= r[in.B])
			case ir.Gt:
				r[in.Dst] = b2i(r[in.A] > r[in.B])
			case ir.Ge:
				r[in.Dst] = b2i(r[in.A] >= r[in.B])
			case ir.BAnd:
				r[in.Dst] = r[in.A] & r[in.B]
			case ir.BOr:
				r[in.Dst] = r[in.A] | r[in.B]
			case ir.BXor:
				r[in.Dst] = r[in.A] ^ r[in.B]
			case ir.Shl:
				r[in.Dst] = r[in.A] << uint(r[in.B]&63)
			case ir.Shr:
				r[in.Dst] = r[in.A] >> uint(r[in.B]&63)
			case ir.LoadG:
				r[in.Dst] = m.globals[in.Sym]
			case ir.StoreG:
				m.globals[in.Sym] = r[in.A]
			case ir.LoadA:
				arr := m.arrays[in.Sym]
				if len(arr) == 0 {
					r[in.Dst] = 0
				} else {
					r[in.Dst] = arr[wrap(r[in.A], int64(len(arr)))]
				}
			case ir.StoreA:
				arr := m.arrays[in.Sym]
				if len(arr) > 0 {
					arr[wrap(r[in.A], int64(len(arr)))] = r[in.B]
				}
			case ir.Print:
				if m.opts.Output != nil {
					fmt.Fprintf(m.opts.Output, "%d\n", r[in.A])
				}
			}
		}
		if callMade {
			continue
		}

		// Terminator.
		steps++
		base += cTerm
		t := &b.Term
		switch t.Kind {
		case ir.Ret:
			if rt.paths != nil {
				rt.paths.Add(fr.path, 1)
				m.tel.Paths.Inc()
				m.tel.PathLen.Observe(int64(len(fr.path)))
				if m.pathHook != nil {
					m.pathHook(rt.fn.Name, fr.path)
				}
			}
			if t.Ret >= 0 {
				retVal = fr.regs[t.Ret]
			} else {
				retVal = 0
			}
			stack = stack[:len(stack)-1]
			if len(stack) > 0 {
				caller := stack[len(stack)-1]
				if fr.callDst >= 0 {
					caller.regs[fr.callDst] = retVal
				}
			}
			m.free(fr)
		case ir.Jump:
			s := &rt.blocks[fr.block].succ[0]
			base += s.takenCost
			m.transition(fr, s)
			fr.block, fr.pc = s.to, 0
		case ir.Branch:
			idx := 1 // else arm
			if fr.regs[t.Cond] != 0 {
				idx = 0
			}
			s := &rt.blocks[fr.block].succ[idx]
			base += s.takenCost
			m.transition(fr, s)
			fr.block, fr.pc = s.to, 0
		}
	}
	m.res.Steps = steps
	m.res.BaseCost = base
	return retVal, nil
}

// transition handles a control-flow edge through its precompiled
// successor state: edge profiling, path tracking, and instrumentation
// ops, with no map lookups. The path appends below reuse fr.path's
// capacity after the first few iterations; BenchmarkVM asserts zero
// steady-state allocations.
//
//ppp:hotpath
func (m *machine) transition(fr *frame, s *succRT) {
	rt := fr.rt
	m.tel.Transitions.Inc()
	if s.edgeSlot >= 0 {
		rt.edges.BumpSlot(int(s.edgeSlot))
	}
	m.res.InstrCost += s.instrCost
	if s.ops != nil {
		m.runOps(fr, s.ops)
	}
	if rt.paths != nil {
		if s.back {
			fr.path = append(fr.path, s.exitDummy) //ppp:allow(alloc)
			rt.paths.Add(fr.path, 1)
			m.tel.Paths.Inc()
			m.tel.PathLen.Observe(int64(len(fr.path)))
			if m.pathHook != nil {
				m.pathHook(rt.fn.Name, fr.path)
			}
			fr.path = fr.path[:0]
			fr.path = append(fr.path, s.entryDummy) //ppp:allow(alloc)
		} else {
			fr.path = append(fr.path, s.pathEdge) //ppp:allow(alloc)
		}
	}
}

// runOps executes a planir instrumentation op stream with modeled
// cost.
//
//ppp:hotpath
func (m *machine) runOps(fr *frame, ops []planir.Op) {
	costs := &m.opts.Costs
	rt := fr.rt
	hash := rt.hash
	m.tel.Ops.Add(int64(len(ops)))
	for _, op := range ops {
		switch op.Kind {
		case planir.OpInc:
			fr.r += op.V
			m.res.InstrCost += costs.RegOp
		case planir.OpSet:
			fr.r = op.V
			m.res.InstrCost += costs.RegOp
		case planir.OpCountR, planir.OpCountRV, planir.OpCountC:
			idx := fr.r
			switch op.Kind {
			case planir.OpCountRV:
				idx += op.V
			case planir.OpCountC:
				idx = op.V
			}
			if rt.poisonCheck {
				m.res.InstrCost += costs.PoisonCheck
				if fr.r < 0 {
					rt.table.BumpCold()
					m.tel.ColdBumps.Inc()
					m.res.InstrCost += costs.ColdBump
					continue
				}
			}
			switch {
			case hash:
				m.res.InstrCost += costs.CountHash
			case op.Kind == planir.OpCountC:
				m.res.InstrCost += costs.CountConst
			default:
				m.res.InstrCost += costs.CountArray
			}
			rt.table.Inc(idx)
			m.tel.TableIncs.Inc()
		}
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// safeDiv defines x/0 = 0 and MinInt64/-1 = MinInt64 so arithmetic is
// total (the language has no traps).
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

// wrap maps an arbitrary index into [0, size): array indices wrap
// modulo the array size by definition. In-range indices (the common
// case) skip the division; size 0 yields 0 so empty arrays are total
// too (callers must still skip the element access).
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

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
// is differentially tested against. What a control-flow transition
// does to the profiles is defined once, by compile.Stepper.Step: the
// interpreter executes it, and translation validation checks every
// compiled transition against it.
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
	"pathprof/internal/profile"
	"pathprof/internal/telemetry"
	"pathprof/internal/vm/compile"
)

// CostModel assigns costs to executed operations; both backends charge
// from it.
type CostModel = compile.CostModel

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
	// Costs is the cost model; the zero CostModel means DefaultCosts().
	Costs CostModel
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

// funcRT is one routine's binding-level state: the engine's immutable
// successor records joined with this worker's profile containers,
// telemetry cells and path hook through the shared transition step.
type funcRT struct {
	fn    *ir.Func
	succs [][2]compile.SuccSpec // [0] Jump target or Branch taken arm, [1] Branch else arm
	compile.Stepper
}

type frame struct {
	rt      *funcRT
	regs    []int64
	block   int
	pc      int
	callDst int // caller register receiving the return value
	compile.Track
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
	prog    *ir.Program
	opts    *Options // the engine's defaulted options, shared read-only
	entry   int
	res     *Result
	globals []int64
	arrays  [][]int64
	rts     []*funcRT
	pool    []*frame // recycled frames; regs/path capacity is retained
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
	fr.callDst = callDst
	if cap(fr.regs) < f.NRegs {
		fr.regs = make([]int64, f.NRegs)
	} else {
		fr.regs = fr.regs[:f.NRegs]
		for i := range fr.regs {
			fr.regs[i] = 0
		}
	}
	fr.Track = compile.Track{Path: fr.Path[:0]}
	if fr.rt.Run.Edges != nil {
		fr.rt.Run.Edges.BumpCalls()
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
	cInstr, cTerm, cCall, cTaken := costs.Instr, costs.Term, costs.Call, costs.TakenPenalty
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
			rt.EndPath(&fr.Track)
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
		case ir.Jump, ir.Branch:
			arm := 0
			if t.Kind == ir.Branch && fr.regs[t.Cond] == 0 {
				arm = 1 // else arm
			}
			s := &rt.succs[fr.block][arm]
			if s.To != fr.block+1 {
				base += cTaken
			}
			m.res.InstrCost += rt.Step(s, &fr.Track)
			fr.block, fr.pc = s.To, 0
		}
	}
	m.res.Steps = steps
	m.res.BaseCost = base
	return retVal, nil
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

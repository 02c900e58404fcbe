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
// One executor runs these semantics: each routine compiles to threaded
// code (internal/vm/compile), translation-validated before it runs.
// What a control-flow transition does to the profiles is defined once,
// by compile.Stepper.Step, and translation validation checks every
// compiled transition against it. The dense interpreter the compiled
// code is differentially tested against lives in this package's tests
// (interp_test.go), as the reference oracle: it is not part of any
// production path.
package vm

import (
	"errors"
	"io"

	"pathprof/internal/cfg"
	"pathprof/internal/instr"
	"pathprof/internal/ir"
	"pathprof/internal/profile"
	"pathprof/internal/telemetry"
	"pathprof/internal/vm/compile"
)

// CostModel assigns costs to executed operations.
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
	// table increments, completed paths) and the executor's trace
	// formations. A metered run takes the same transitions and forms
	// the same traces as an unmetered one; each transition adds its
	// constant counters, and traces their sums, behind one branch. Nil
	// is the no-op sink: that branch counts nothing, and the few bumps
	// left (the generic op stream's and trace formations') cost one
	// nil-check branch each. A run writes worker 0's cells;
	// RunReplicated gives each worker its own.
	Metrics *telemetry.VMMetrics
	// Trace, if set, receives runtime decision events (RunReplicated
	// shard quarantines); TraceUnit labels them.
	Trace     *telemetry.Trace
	TraceUnit string
	// Backend has one value, and the engine ignores it.
	//
	// Deprecated: compiled threaded code is the only executor. The
	// field stays so callers that still set it (the perfbench module)
	// build unchanged; leave it unset.
	Backend Backend

	// newExec, when set (only by tests: vm.Interp), builds each
	// binding's executor in place of compile.NewExec. The engine still
	// compiles and validates.
	newExec func(e *Engine, conf compile.Config) (executor, error)
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
	// in microseconds. It is engine-build work, surfaced on the Result
	// so reporting tools can attribute it.
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

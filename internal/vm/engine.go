package vm

// The engine is the once-per-plan half of the VM, split out so
// replicated runs stop paying it per replica: plans lower to the
// planir artifact and validate once, DAGs and successor specs build
// once, and every routine compiles to threaded code and is
// translation-validated once. Workers then bind the immutable engine
// to their private profile shard — container lookup, canonical
// edge-slot registration, telemetry cells — and run replicas against
// the shared code with no per-replica setup beyond a state reset.

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"pathprof/internal/cfg"
	"pathprof/internal/instr"
	"pathprof/internal/ir"
	"pathprof/internal/planir"
	"pathprof/internal/profile"
	"pathprof/internal/telemetry"
	"pathprof/internal/vm/compile"
)

// Backend is the type of Options.Backend, which no longer selects
// anything: it has the one value BackendCompiled.
//
// Deprecated: compiled threaded code is the only executor. Backend and
// BackendCompiled stay so callers that still name them (the perfbench
// module) build unchanged.
type Backend struct{}

// BackendCompiled is the only Backend value.
//
// Deprecated: see Backend.
var BackendCompiled Backend

// routineRT is one routine's immutable engine state: the lowered
// planir artifact, the path-tracking DAG, and the successor spec with
// canonical edge-slot numbering, which the compiled code executes.
type routineRT struct {
	fn   *ir.Func
	d    *cfg.DAG
	pr   *planir.Routine
	spec compile.FuncSpec
	// slotPairs lists the (from, to) block pairs in canonical slot
	// order: pair i registers as slot i on every worker's shard, which
	// is what keeps merged edge profiles bit-identical across worker
	// counts.
	slotPairs [][2]int32

	instrumented bool
	tableKind    profile.TableKind
	tableN       int64
	tableSize    int64
}

// Engine is the sharable, immutable artifact of plan validation,
// compilation and translation validation. Build it once with
// NewEngine; Run and RunReplicated construct a throwaway one
// internally, so only callers that reuse a program across many runs
// need to hold one.
type Engine struct {
	prog     *ir.Program
	opts     Options
	entryIdx int
	routines []*routineRT
	plan     *planir.Program
	compiled *compile.Program
	// validateUs records per-routine translation-validation wall time
	// (µs).
	validateUs map[string]int64
}

// NewEngine prepares prog for execution under opts: option defaulting,
// plan lowering and validation, DAG and successor-spec construction,
// threaded-code compilation and translation validation.
func NewEngine(prog *ir.Program, opts Options) (*Engine, error) {
	if opts.Entry == "" {
		opts.Entry = "main"
	}
	if opts.MaxSteps == 0 {
		opts.MaxSteps = defaultMaxSteps
	}
	if opts.Costs == (CostModel{}) {
		opts.Costs = DefaultCosts()
	}
	entryIdx, ok := prog.FuncIndex[opts.Entry]
	if !ok {
		return nil, fmt.Errorf("vm: no function %q", opts.Entry)
	}
	entry := prog.Funcs[entryIdx]
	if len(opts.Args) != entry.NParams {
		return nil, fmt.Errorf("vm: %s expects %d args, got %d", entry.Name, entry.NParams, len(opts.Args))
	}

	e := &Engine{prog: prog, opts: opts, entryIdx: entryIdx}
	e.routines = make([]*routineRT, len(prog.Funcs))
	var lowered []*planir.Routine
	for i, f := range prog.Funcs {
		rt, err := e.prepare(f)
		if err != nil {
			return nil, err
		}
		e.routines[i] = rt
		if rt.pr != nil {
			lowered = append(lowered, rt.pr)
		}
	}
	if len(lowered) > 0 {
		sort.Slice(lowered, func(i, j int) bool { return lowered[i].Name < lowered[j].Name })
		e.plan = &planir.Program{Routines: lowered}
		if err := e.plan.Validate(); err != nil {
			return nil, fmt.Errorf("vm: instrumentation plan rejected: %w", err)
		}
	}
	specs := make([]compile.FuncSpec, len(e.routines))
	for i, rt := range e.routines {
		specs[i] = rt.spec
	}
	cp, err := compile.New(prog, specs, compile.Options{
		Costs:          opts.Costs,
		CollectEdges:   opts.CollectEdges,
		CollectPaths:   opts.CollectPaths,
		EdgeInstrument: opts.EdgeInstrument,
		Telemetry:      opts.Metrics != nil,
		PathHooks:      opts.PathHook != nil || opts.PathHookFor != nil,
	})
	if err != nil {
		return nil, err
	}
	e.compiled = cp
	// Translation validation: prove each compiled routine effect-
	// equivalent to the spec it was lowered from before any replica
	// runs it. The trace detail stays deterministic (no timing) so
	// decision traces byte-compare across runs.
	e.validateUs = make(map[string]int64, len(prog.Funcs))
	v := compile.NewValidator(cp)
	for fi, f := range prog.Funcs {
		start := time.Now()
		err := v.Func(fi)
		e.validateUs[f.Name] = time.Since(start).Microseconds()
		if err != nil {
			return nil, fmt.Errorf("vm: translation validation: %w", err)
		}
		opts.Trace.Emit(telemetry.Event{
			Unit:    opts.TraceUnit,
			Routine: f.Name,
			Kind:    telemetry.EvValidate,
			Detail:  "ok",
		})
	}
	return e, nil
}

// ValidateUs returns per-routine translation-validation wall time in
// microseconds.
func (e *Engine) ValidateUs() map[string]int64 { return e.validateUs }

// Compiled returns the validated threaded-code program.
func (e *Engine) Compiled() *compile.Program { return e.compiled }

// prepare builds one routine's engine state. Instrumentation ops come
// from the planir transitions — the same artifact Validate checked —
// not from the raw plan maps.
func (e *Engine) prepare(f *ir.Func) (*routineRT, error) {
	rt := &routineRT{fn: f}
	var plan *instr.Plan
	if e.opts.Plans != nil {
		plan = e.opts.Plans[f.Name]
	}
	needDAG := e.opts.CollectPaths || (plan != nil && plan.Instrumented)
	if plan != nil {
		// Reuse the plan's DAG so edge IDs resolve correctly.
		rt.d = plan.D
		rt.pr = planir.FromPlan(plan)
		rt.spec.Hash = plan.Hash
		rt.spec.PoisonCheck = plan.PoisonCheck
		if plan.Instrumented {
			rt.instrumented = true
			rt.tableKind = profile.ArrayTable
			if plan.Hash {
				rt.tableKind = profile.HashTable
			}
			rt.tableN, rt.tableSize = plan.N, plan.TableSize
		}
	} else if needDAG {
		g, err := f.CFG()
		if err != nil {
			return nil, err
		}
		d, err := cfg.BuildDAG(g)
		if err != nil {
			return nil, err
		}
		rt.d = d
	}

	var (
		real       map[[2]int]*cfg.DAGEdge
		entryDummy map[int]*cfg.DAGEdge // by header block index
		exitDummy  map[int]*cfg.DAGEdge // by tail block index
		back       map[[2]int]bool
	)
	if rt.d != nil {
		real = map[[2]int]*cfg.DAGEdge{}
		entryDummy = map[int]*cfg.DAGEdge{}
		exitDummy = map[int]*cfg.DAGEdge{}
		back = map[[2]int]bool{}
		for _, de := range rt.d.Edges {
			switch de.Kind {
			case cfg.RealEdge:
				real[[2]int{de.Src.ID, de.Dst.ID}] = de
			case cfg.EntryDummy:
				entryDummy[de.Dst.ID] = de
			case cfg.ExitDummy:
				exitDummy[de.Src.ID] = de
			}
		}
		for _, ce := range rt.d.G.Edges {
			if ce.Back {
				back[[2]int{ce.Src.ID, ce.Dst.ID}] = true
			}
		}
	}
	var transOps map[[2]int32][]planir.Op
	if rt.pr != nil && rt.pr.Instrumented {
		transOps = map[[2]int32][]planir.Op{}
		for i := range rt.pr.Transitions {
			t := &rt.pr.Transitions[i]
			if len(t.Ops) > 0 {
				transOps[[2]int32{t.Src, t.Dst}] = t.Ops
			}
		}
	}

	// Min-cost placement restricts edge counting to the plan's chord
	// probes: only probed transitions carry a counter (slot + EdgeCount
	// cost, jump or branch alike); everything else is recovered from
	// flow conservation after the run (placement.Spec.RecoverFrom).
	// Probes stay nil under spanning placement — or when edge
	// instrumentation is off, so plain CollectEdges still gathers the
	// full ground-truth profile.
	var probed map[[2]int32]bool
	if plan != nil && plan.Placement == instr.PlaceMinCost && plan.Probes != nil && e.opts.EdgeInstrument {
		probed = make(map[[2]int32]bool, plan.Probes.NumProbes())
		for _, pr := range plan.Probes.Probes {
			probed[[2]int32{int32(pr.Src), int32(pr.Dst)}] = true
		}
	}

	mk := func(from, to int, isBranch bool) compile.SuccSpec {
		s := compile.SuccSpec{To: to, EdgeSlot: -1}
		slotted := e.opts.CollectEdges
		if probed != nil {
			if probed[[2]int32{int32(from), int32(to)}] {
				s.InstrCost = e.opts.Costs.EdgeCount
			} else {
				slotted = false
			}
		} else if e.opts.EdgeInstrument && isBranch {
			s.InstrCost = e.opts.Costs.EdgeCount
		}
		if slotted {
			s.EdgeSlot = int32(len(rt.slotPairs))
			rt.slotPairs = append(rt.slotPairs, [2]int32{int32(from), int32(to)})
		}
		if transOps != nil {
			s.Ops = transOps[[2]int32{int32(from), int32(to)}]
		}
		if rt.d != nil {
			if back[[2]int{from, to}] {
				s.Back = true
				s.ExitDummy = exitDummy[from]
				s.EntryDummy = entryDummy[to]
			} else {
				s.PathEdge = real[[2]int{from, to}]
			}
		}
		return s
	}
	if e.opts.CollectPaths {
		rt.spec.Edges = rt.d.Edges
	}
	rt.spec.Succs = make([][2]compile.SuccSpec, len(f.Blocks))
	for i, b := range f.Blocks {
		switch b.Term.Kind {
		case ir.Jump:
			rt.spec.Succs[i][0] = mk(i, b.Term.To, false)
		case ir.Branch:
			rt.spec.Succs[i][0] = mk(i, b.Term.To, true)
			rt.spec.Succs[i][1] = mk(i, b.Term.Else, true)
		}
	}
	return rt, nil
}

// executor runs one worker's replicas: *compile.Exec in production,
// the reference interpreter under vm.Interp in tests.
type executor interface {
	Reset()
	Run(entry int, args []int64) (int64, error)
	Counters() compile.Counters
}

// binding is one worker's attachment of the engine to its profile
// containers: the part of a run that depends on the shard, built once
// per worker and reused across its replicas.
type binding struct {
	eng    *Engine
	x      executor
	edges  map[string]*profile.EdgeProfile
	paths  map[string]*profile.PathProfile
	tables map[string]*profile.Table
	dags   map[string]*cfg.DAG
}

// bind attaches the engine to one worker's collector shard (nil for
// fresh containers), telemetry cell, and path hook.
func (e *Engine) bind(sink *profile.Shard, worker int, hook func(fn string, p cfg.Path)) (*binding, error) {
	b := &binding{
		eng:    e,
		edges:  map[string]*profile.EdgeProfile{},
		paths:  map[string]*profile.PathProfile{},
		tables: map[string]*profile.Table{},
		dags:   map[string]*cfg.DAG{},
	}
	fts := make([]compile.FuncRun, len(e.prog.Funcs))
	for i, rt := range e.routines {
		name := rt.fn.Name
		run := &fts[i]
		if rt.instrumented {
			if sink != nil {
				run.Table = sink.Table(name, rt.tableKind, rt.tableN, rt.tableSize)
			} else {
				run.Table = profile.NewTable(rt.tableKind, rt.tableN, rt.tableSize)
			}
			b.tables[name] = run.Table
		}
		if e.opts.CollectEdges {
			if sink != nil {
				run.Edges = sink.EdgeProfile(name)
			} else {
				run.Edges = profile.NewEdgeProfile(name)
			}
			b.edges[name] = run.Edges
			// Register the canonical slot order, which the compiled code
			// bumps by index, on the fresh profile or shard.
			for _, p := range rt.slotPairs {
				run.Edges.Slot(int(p[0]), int(p[1]))
			}
		}
		if e.opts.CollectPaths {
			if sink != nil {
				run.Paths = sink.PathProfile(name)
			} else {
				run.Paths = profile.NewPathProfile(name)
			}
			run.Paths.Bind(rt.spec.Edges)
			b.paths[name] = run.Paths
		}
		if rt.d != nil {
			b.dags[name] = rt.d
		}
	}

	conf := compile.Config{
		Fts:      fts,
		Out:      e.opts.Output,
		Tel:      e.opts.Metrics.Cells(worker),
		PathHook: hook,
		MaxSteps: e.opts.MaxSteps,
	}
	var err error
	if e.opts.newExec != nil {
		b.x, err = e.opts.newExec(e, conf)
	} else {
		b.x, err = compile.NewExec(e.compiled, conf)
	}
	if err != nil {
		return nil, err
	}
	return b, nil
}

// run executes one replica on this binding's executor.
func (b *binding) run(args []int64) (*Result, error) {
	b.x.Reset()
	ret, err := b.x.Run(b.eng.entryIdx, args)
	if err != nil {
		if errors.Is(err, compile.ErrMaxSteps) {
			return nil, ErrMaxSteps
		}
		return nil, err
	}
	c := b.x.Counters()
	return &Result{
		Ret: ret, BaseCost: c.BaseCost, InstrCost: c.InstrCost,
		Steps: c.Steps, DynCalls: c.DynCalls,
		Edges: b.edges, Paths: b.paths, Tables: b.tables, DAGs: b.dags,
		ValidateUs: b.eng.validateUs,
	}, nil
}

// Run executes one run under the engine's options (opts.Args,
// PathHook) on fresh containers and worker 0's metric cells, exactly
// as package-level Run would.
func (e *Engine) Run() (*Result, error) {
	b, err := e.bind(nil, 0, e.opts.PathHook)
	if err != nil {
		return nil, err
	}
	return b.run(e.opts.Args)
}

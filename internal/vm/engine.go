package vm

// The engine is the once-per-plan half of the VM, split out so
// replicated runs stop paying it per replica: plans lower to the
// planir artifact and validate once, DAGs and dense successor tables
// build once, and (under BackendCompiled) every routine compiles to
// threaded code once. Workers then bind the immutable engine to their
// private profile shard — container lookup, canonical edge-slot
// registration, telemetry cells — and run replicas against the shared
// tables with no per-replica setup beyond a state reset.

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

// Backend selects the execution engine. The zero value is
// BackendCompiled, so every caller that names no backend runs threaded
// code; BackendDense is the reference interpreter, named explicitly by
// differential tests, fuzzing and `-backend dense`.
type Backend int

const (
	// BackendCompiled specializes each routine into chained per-block
	// closures (internal/vm/compile): successor choice, event-value
	// arithmetic, and instrumentation ops fuse into one straight-line
	// call per transition. The default.
	BackendCompiled Backend = iota
	// BackendDense is the dense-dispatch interpreter, the reference the
	// compiled backend is checked against.
	BackendDense
)

func (b Backend) String() string {
	switch b {
	case BackendDense:
		return "dense"
	case BackendCompiled:
		return "compiled"
	}
	return fmt.Sprintf("backend(%d)", int(b))
}

// ParseBackend parses a backend name; the empty string means
// compiled, the default.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "", "compiled":
		return BackendCompiled, nil
	case "dense":
		return BackendDense, nil
	}
	return 0, fmt.Errorf("vm: unknown backend %q (want compiled or dense)", s)
}

// routineRT is one routine's immutable engine state: the lowered
// planir artifact, the path-tracking DAG, and the successor spec with
// canonical edge-slot numbering, which both backends execute.
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

// Engine is the sharable, immutable artifact of plan validation and
// backend setup. Build it once with NewEngine; Run and RunReplicated
// construct a throwaway one internally, so only callers that reuse a
// program across many runs need to hold one.
type Engine struct {
	prog     *ir.Program
	opts     Options
	entryIdx int
	routines []*routineRT
	plan     *planir.Program
	compiled *compile.Program
	// validateUs records per-routine translation-validation wall time
	// (µs), populated when the compiled backend builds.
	validateUs map[string]int64
}

// NewEngine prepares prog for execution under opts: option defaulting,
// plan lowering and validation, DAG and successor-table construction,
// and — under BackendCompiled — threaded-code compilation.
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
	if opts.Backend == BackendCompiled {
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
		// Translation validation: prove each compiled routine
		// effect-equivalent to the spec it was lowered from before any
		// replica runs it. The trace detail stays deterministic (no
		// timing) so decision traces byte-compare across runs.
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
	}
	return e, nil
}

// ValidateUs returns per-routine translation-validation wall time in
// microseconds (nil under the dense backend, which has nothing to
// validate).
func (e *Engine) ValidateUs() map[string]int64 { return e.validateUs }

// Compiled returns the validated threaded-code program (nil under the
// dense backend).
func (e *Engine) Compiled() *compile.Program { return e.compiled }

// Backend reports which backend the engine was built for.
func (e *Engine) Backend() Backend { return e.opts.Backend }

// CompileStats returns per-routine threaded-code compilation stats
// (nil under the dense backend).
func (e *Engine) CompileStats() []compile.Stat {
	if e.compiled == nil {
		return nil
	}
	return e.compiled.Stats
}

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

// binding is one worker's attachment of the engine to its profile
// containers: the part of a run that depends on the shard, built once
// per worker and reused across its replicas.
type binding struct {
	eng    *Engine
	m      *machine
	x      *compile.Exec
	edges  map[string]*profile.EdgeProfile
	paths  map[string]*profile.PathProfile
	tables map[string]*profile.Table
	dags   map[string]*cfg.DAG
}

// bind attaches the engine to one worker's sink (nil for fresh
// containers), telemetry cell, and path hook.
func (e *Engine) bind(sink ProfileSink, worker int, hook func(fn string, p cfg.Path)) (*binding, error) {
	b := &binding{
		eng:    e,
		edges:  map[string]*profile.EdgeProfile{},
		paths:  map[string]*profile.PathProfile{},
		tables: map[string]*profile.Table{},
		dags:   map[string]*cfg.DAG{},
	}
	tel := e.opts.Metrics.Cells(worker)
	nf := len(e.prog.Funcs)
	fts := make([]compile.FuncRun, nf)
	succs := make([][][2]compile.SuccSpec, nf)
	for i, rt := range e.routines {
		name := rt.fn.Name
		run := &fts[i]
		succs[i] = rt.spec.Succs
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
			// Register the canonical slot order on this shard. A fresh
			// container yields exactly the template numbering; a sink with
			// foreign pre-registered slots can't serve baked-in compiled
			// slots, and makes the dense backend fall back to a rebound
			// successor table.
			mismatch := false
			for si, p := range rt.slotPairs {
				if run.Edges.Slot(int(p[0]), int(p[1])) != si {
					mismatch = true
				}
			}
			if mismatch {
				if e.opts.Backend == BackendCompiled {
					return nil, fmt.Errorf("vm: %s: sink edge profile has foreign slot order; the compiled backend needs fresh shards (Backend: vm.BackendDense re-slots)", name)
				}
				succs[i] = reslot(rt, run.Edges)
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

	if e.compiled != nil {
		x, err := compile.NewExec(e.compiled, compile.Config{
			Fts:      fts,
			Out:      e.opts.Output,
			Tel:      tel,
			PathHook: hook,
			MaxSteps: e.opts.MaxSteps,
		})
		if err != nil {
			return nil, err
		}
		b.x = x
		return b, nil
	}

	m := &machine{prog: e.prog, opts: &e.opts, entry: e.entryIdx}
	m.globals = make([]int64, len(e.prog.GlobalInit))
	m.arrays = make([][]int64, len(e.prog.Arrays))
	for i, a := range e.prog.Arrays {
		m.arrays[i] = make([]int64, a.Size)
	}
	m.rts = make([]*funcRT, nf)
	for i, rt := range e.routines {
		m.rts[i] = &funcRT{fn: rt.fn, succs: succs[i], Stepper: compile.Stepper{
			Name: rt.fn.Name, Spec: &rt.spec, Run: fts[i],
			Costs: &e.opts.Costs, Tel: tel, Hook: hook,
		}}
	}
	b.m = m
	return b, nil
}

// reslot clones a routine's successor spec with edge slots
// re-resolved against an already-populated edge profile.
func reslot(rt *routineRT, ep *profile.EdgeProfile) [][2]compile.SuccSpec {
	succs := append([][2]compile.SuccSpec(nil), rt.spec.Succs...)
	for i := range succs {
		for k := 0; k < 2; k++ {
			s := &succs[i][k]
			if s.EdgeSlot >= 0 {
				s.EdgeSlot = int32(ep.Slot(i, s.To))
			}
		}
	}
	return succs
}

// run executes one replica on this binding's backend.
func (b *binding) run(args []int64) (*Result, error) {
	if b.x != nil {
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
	return b.m.run(args, b)
}

// Run executes one run under the engine's options (opts.Args, Sink,
// MetricsWorker, PathHook), exactly as package-level Run would.
func (e *Engine) Run() (*Result, error) {
	b, err := e.bind(e.opts.Sink, e.opts.MetricsWorker, e.opts.PathHook)
	if err != nil {
		return nil, err
	}
	return b.run(e.opts.Args)
}

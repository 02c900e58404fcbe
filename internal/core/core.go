// Package core is the library's public API: it drives the full
// practical-path-profiling pipeline of Bond & McKinley (CGO 2005) over
// a mini-C program.
//
// The pipeline mirrors the paper's staged-optimization methodology
// (Section 7):
//
//  1. Stage compiles the source, collects a baseline edge profile,
//     applies profile-guided unrolling (factor 4) and inlining (5%
//     bloat) guided by that profile, and re-profiles the optimized
//     program. The final run's exact edge and path profiles are both
//     the guiding profile for instrumentation ("self" advice) and the
//     ground truth for evaluation.
//  2. Profile builds per-routine instrumentation plans for a chosen
//     profiler (PP, TPP, PPP, or any ablation of PPP's techniques),
//     reruns the program with the instrumentation executing under the
//     VM's cost model, and wraps the results for evaluation: accuracy,
//     coverage, instrumented fraction, and runtime overhead.
package core

import (
	"fmt"
	"sort"

	"pathprof/internal/cfg"
	"pathprof/internal/eval"
	"pathprof/internal/instr"
	"pathprof/internal/ir"
	"pathprof/internal/lower"
	"pathprof/internal/opt"
	"pathprof/internal/profile"
	"pathprof/internal/telemetry"
	"pathprof/internal/vm"
)

// Pipeline configures a benchmark run end to end.
type Pipeline struct {
	// Name labels reports; Source is mini-C source text.
	Name   string
	Source string
	// Entry is the function to execute (default "main").
	Entry string

	Inline opt.InlineParams
	Unroll opt.UnrollParams
	Instr  instr.Params
	Costs  vm.CostModel
	// MaxSteps bounds each VM run (0 = VM default).
	MaxSteps int64
	// NoOpt skips inlining and unrolling (the paper's "original code"
	// configuration).
	NoOpt bool
	// PathHook, if set, tees the final profiling run's path stream (the
	// run that produces Staged.Base, or the original run under NoOpt)
	// to an online consumer such as netprof's NET predictor, so stream
	// observers need no second execution of the program.
	PathHook func(fn string, p cfg.Path)
	// Metrics, if set, receives the VM hot-loop counters from every run
	// the pipeline performs. Nil is the zero-overhead no-op sink.
	Metrics *telemetry.VMMetrics
	// Backend has one value, and the pipeline ignores it.
	//
	// Deprecated: every run executes compiled threaded code. The field
	// stays so callers that still read it (the perfbench module) build
	// unchanged.
	Backend vm.Backend
}

// NewPipeline returns a pipeline with the paper's default parameters.
func NewPipeline(name, source string) *Pipeline {
	return &Pipeline{
		Name:   name,
		Source: source,
		Inline: opt.DefaultInlineParams(),
		Unroll: opt.DefaultUnrollParams(),
		Instr:  instr.DefaultParams(),
		Costs:  vm.DefaultCosts(),
	}
}

// Staged is the output of the staging phase.
type Staged struct {
	Pipeline *Pipeline
	// Original is the unoptimized program and its profiling run.
	Original    *ir.Program
	OriginalRun *vm.Result
	// Prog is the inlined+unrolled program; Base its profiling run,
	// which supplies the guiding edge profile and the ground truth.
	Prog *ir.Program
	Base *vm.Result

	UnrollPlan      map[string]int
	UnrollDecisions []opt.UnrollDecision
	InlineInfo      *opt.InlineResult
	// DynCallsBeforeInline is the optimized program's dynamic call
	// count before inlining, for the "% calls inlined" statistic.
	DynCallsBeforeInline int64
}

// Stage compiles, profiles, optimizes, and re-profiles the program.
func (p *Pipeline) Stage() (*Staged, error) {
	runOpts := func(paths, final bool) vm.Options {
		o := vm.Options{
			Costs: p.Costs, Entry: p.Entry, MaxSteps: p.MaxSteps,
			CollectEdges: true, CollectPaths: paths,
			Metrics: p.Metrics,
		}
		if final && paths {
			o.PathHook = p.PathHook
		}
		return o
	}
	p0, err := lower.Compile(p.Source, lower.Options{})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.Name, err)
	}
	r0, err := vm.Run(p0, runOpts(true, p.NoOpt))
	if err != nil {
		return nil, fmt.Errorf("%s: baseline run: %w", p.Name, err)
	}
	s := &Staged{Pipeline: p, Original: p0, OriginalRun: r0}

	if p.NoOpt {
		s.Prog, s.Base = p0, r0
		s.DynCallsBeforeInline = r0.DynCalls
		s.InlineInfo = &opt.InlineResult{SizeFrom: p0.Size(), SizeTo: p0.Size()}
		return s, nil
	}

	s.UnrollPlan, s.UnrollDecisions, err = opt.PlanUnroll(p0, r0.Edges, p.Unroll)
	if err != nil {
		return nil, fmt.Errorf("%s: unroll plan: %w", p.Name, err)
	}
	p1, err := lower.Compile(p.Source, lower.Options{Unroll: s.UnrollPlan})
	if err != nil {
		return nil, fmt.Errorf("%s: unrolled compile: %w", p.Name, err)
	}
	r1, err := vm.Run(p1, runOpts(false, false))
	if err != nil {
		return nil, fmt.Errorf("%s: unrolled run: %w", p.Name, err)
	}
	if r1.Ret != r0.Ret {
		return nil, fmt.Errorf("%s: unrolling changed the result (%d vs %d)", p.Name, r1.Ret, r0.Ret)
	}
	s.DynCallsBeforeInline = r1.DynCalls

	s.InlineInfo, err = opt.Inline(p1, r1.Edges, p.Inline)
	if err != nil {
		return nil, fmt.Errorf("%s: inline: %w", p.Name, err)
	}
	if err := p1.Validate(); err != nil {
		return nil, fmt.Errorf("%s: inlined program invalid: %w", p.Name, err)
	}
	base, err := vm.Run(p1, runOpts(true, true))
	if err != nil {
		return nil, fmt.Errorf("%s: optimized run: %w", p.Name, err)
	}
	if base.Ret != r0.Ret {
		return nil, fmt.Errorf("%s: inlining changed the result (%d vs %d)", p.Name, base.Ret, r0.Ret)
	}
	s.Prog, s.Base = p1, base
	return s, nil
}

// Speedup returns the cost ratio of original over optimized code
// (values above 1 mean the optimizations helped), as Table 1 reports.
func (s *Staged) Speedup() float64 {
	if s.Base.BaseCost == 0 {
		return 1
	}
	return float64(s.OriginalRun.BaseCost) / float64(s.Base.BaseCost)
}

// PctCallsInlined returns the fraction of dynamic calls removed by
// inlining.
func (s *Staged) PctCallsInlined() float64 {
	if s.DynCallsBeforeInline == 0 {
		return 0
	}
	return float64(s.DynCallsBeforeInline-s.Base.DynCalls) / float64(s.DynCallsBeforeInline)
}

// TotalUnitFlow returns the program's dynamic path count, the
// denominator of PPP's global cold-edge criterion.
func (s *Staged) TotalUnitFlow() int64 {
	var sum int64
	for _, pp := range s.Base.Paths {
		sum += pp.Total()
	}
	return sum
}

// PathStats summarises dynamic path shape for Table 1.
type PathStats struct {
	DynPaths    int64
	AvgBranches float64
	AvgInstrs   float64
}

// StatsOf computes dynamic path statistics from a profiling run.
func StatsOf(res *vm.Result) PathStats {
	var paths, branches, instrs int64
	for name, pp := range res.Paths {
		d := res.DAGs[name]
		for _, pc := range pp.Paths() {
			paths += pc.Count
			branches += int64(pc.Path.Branches(d)) * pc.Count
			instrs += int64(pc.Path.Instrs()) * pc.Count
		}
	}
	st := PathStats{DynPaths: paths}
	if paths > 0 {
		st.AvgBranches = float64(branches) / float64(paths)
		st.AvgInstrs = float64(instrs) / float64(paths)
	}
	return st
}

// Mode is a routine's position on the degraded-profiling ladder. The
// profiler never gives up on a routine outright: when the requested
// techniques cannot number its paths it falls to TPP's aggressive
// cold-path removal, and when even that overflows — or runtime
// counters saturate — it drops to the edge profile, which is always
// collectable.
type Mode int

const (
	// ModeFull: the requested techniques produced the plan.
	ModeFull Mode = iota
	// ModeTPP: path counts stayed above the numbering limit after SAC,
	// so the routine fell back to TPP's local cold-edge criterion.
	ModeTPP
	// ModeEdgeOnly: even the TPP fallback could not number the routine,
	// or its runtime counters saturated; only the edge profile is
	// trustworthy for it.
	ModeEdgeOnly
)

func (m Mode) String() string {
	switch m {
	case ModeFull:
		return "full"
	case ModeTPP:
		return "tpp"
	case ModeEdgeOnly:
		return "edge-only"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ProfilerResult is one profiler's instrumented run plus evaluation.
type ProfilerResult struct {
	Name  string
	Tech  instr.Techniques
	Plans map[string]*instr.Plan
	Run   *vm.Result
	Eval  *eval.Program

	// SACAdjusted counts routines whose global criterion self-adjusted
	// and MaxSACIterations the largest iteration count (Section 4.3).
	SACAdjusted      int
	MaxSACIterations int
	HashedRoutines   int

	// Modes is each routine's degradation level; routines absent from
	// the map did not degrade (ModeFull).
	Modes map[string]Mode
}

// Degraded counts routines below ModeFull.
func (pr *ProfilerResult) Degraded() int {
	n := 0
	for _, m := range pr.Modes {
		if m != ModeFull {
			n++
		}
	}
	return n
}

// ModeSummary renders the run's ladder state compactly for reports:
// "full" when nothing degraded, otherwise per-level routine counts
// like "tpp:2 edge-only:1".
func (pr *ProfilerResult) ModeSummary() string {
	var tpp, edge int
	for _, m := range pr.Modes {
		switch m {
		case ModeTPP:
			tpp++
		case ModeEdgeOnly:
			edge++
		}
	}
	if tpp == 0 && edge == 0 {
		return "full"
	}
	s := ""
	if tpp > 0 {
		s = fmt.Sprintf("tpp:%d", tpp)
	}
	if edge > 0 {
		if s != "" {
			s += " "
		}
		s += fmt.Sprintf("edge-only:%d", edge)
	}
	return s
}

// Overhead returns the profiler's runtime overhead.
func (pr *ProfilerResult) Overhead() float64 { return pr.Run.Overhead() }

// Profile builds instrumentation plans for the given techniques, runs
// the instrumented program, and packages the evaluation. The guiding
// edge profile is the optimized program's own run ("self" advice).
func (s *Staged) Profile(name string, tech instr.Techniques) (*ProfilerResult, error) {
	return s.ProfileWith(name, tech, s.Base.Edges)
}

// ProfileWith is Profile with an explicit guiding edge profile, e.g.
// one loaded from disk (profile.ReadEdgeProfiles) or from a different
// input — the classic two-run profile-guided workflow, and the way to
// study stale-profile behaviour.
func (s *Staged) ProfileWith(name string, tech instr.Techniques, guide map[string]*profile.EdgeProfile) (*ProfilerResult, error) {
	pr := &ProfilerResult{Name: name, Tech: tech, Plans: map[string]*instr.Plan{}, Modes: map[string]Mode{}}
	par := s.Pipeline.Instr
	par.Unit = s.Pipeline.Name + "/" + name
	if err := s.buildPlans(pr, tech, guide, par); err != nil {
		return nil, err
	}
	plans := pr.Plans
	run, err := vm.Run(s.Prog, vm.Options{
		Costs: s.Pipeline.Costs, Entry: s.Pipeline.Entry, MaxSteps: s.Pipeline.MaxSteps,
		Plans: plans, CollectPaths: true,
		Metrics: s.Pipeline.Metrics,
	})
	if err != nil {
		return nil, fmt.Errorf("%s/%s: instrumented run: %w", s.Pipeline.Name, name, err)
	}
	if run.Ret != s.Base.Ret {
		return nil, fmt.Errorf("%s/%s: instrumentation changed the result", s.Pipeline.Name, name)
	}
	pr.Run = run

	// Runtime overflow is the ladder's last rung: a saturated counter
	// table means the routine's path counts are lower bounds, so its
	// consumers must fall back to the edge profile. Saturated routines
	// are collected into a sorted set first so trace emission order is
	// deterministic.
	saturated := map[string]bool{}
	for fn, tab := range run.Tables {
		if tab.Saturated {
			saturated[fn] = true
		}
	}
	for fn, pp := range run.Paths {
		if pp.Saturated {
			saturated[fn] = true
		}
	}
	satNames := make([]string, 0, len(saturated))
	for fn := range saturated {
		satNames = append(satNames, fn)
	}
	sort.Strings(satNames)
	for _, fn := range satNames {
		pr.Modes[fn] = ModeEdgeOnly
		par.Trace.Emit(telemetry.Event{
			Unit: par.Unit, Routine: fn, Kind: telemetry.EvSaturate,
			Flow:   s.baseFlowOf(fn),
			Detail: "runtime counter saturation: path counts are lower bounds, demoted to edge-only",
		})
	}

	var routines []*eval.Routine
	names := make([]string, 0, len(plans))
	for n := range plans {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		routines = append(routines, &eval.Routine{
			Name:  n,
			Plan:  plans[n],
			Table: run.Tables[n],
			Truth: run.Paths[n],
		})
	}
	pr.Eval = eval.New(routines)
	return pr, nil
}

// PlansFor builds the per-routine instrumentation plans ProfileWith
// would use — degraded-mode ladder included — without executing the
// instrumented program, under an explicit probe placement mode. The
// path-plan side is identical across placements (probe placement only
// decides which transitions carry edge counters), which is what lets
// bench pair spanning and min-cost plan sets over one staged program
// and compare their acquisition cost head to head.
func (s *Staged) PlansFor(name string, tech instr.Techniques, pl instr.Placement) (map[string]*instr.Plan, error) {
	return s.PlansGuided(name, tech, pl, s.Base.Edges)
}

// PlansGuided is PlansFor with an explicit guiding edge profile — the
// profile service's plan endpoint builds plans against the live
// merged aggregate this way, without executing anything. A nil guide
// falls back to the staged base profile.
func (s *Staged) PlansGuided(name string, tech instr.Techniques, pl instr.Placement, guide map[string]*profile.EdgeProfile) (map[string]*instr.Plan, error) {
	pr := &ProfilerResult{Name: name, Tech: tech, Plans: map[string]*instr.Plan{}, Modes: map[string]Mode{}}
	par := s.Pipeline.Instr
	par.Placement = pl
	par.Unit = s.Pipeline.Name + "/" + name
	if guide == nil {
		guide = s.Base.Edges
	}
	if err := s.buildPlans(pr, tech, guide, par); err != nil {
		return nil, err
	}
	return pr.Plans, nil
}

// buildPlans fills pr.Plans (and the plan-time ladder state) for every
// routine of the staged program, guided by the given edge profile.
func (s *Staged) buildPlans(pr *ProfilerResult, tech instr.Techniques, guide map[string]*profile.EdgeProfile, par instr.Params) error {
	total := s.TotalUnitFlow()
	name := pr.Name
	plans := pr.Plans
	for _, f := range s.Prog.Funcs {
		g, err := f.CFG()
		if err != nil {
			return fmt.Errorf("%s/%s: cfg %s: %w", s.Pipeline.Name, name, f.Name, err)
		}
		if ep := guide[f.Name]; ep != nil {
			ep.ApplyTo(g)
		}
		plan, err := instr.Build(g, tech, par, total)
		if err != nil {
			return fmt.Errorf("%s/%s: plan %s: %w", s.Pipeline.Name, name, f.Name, err)
		}
		// Degraded-mode ladder: a routine whose path space defeats the
		// requested techniques (SAC included) retries under TPP's local
		// criterion, which removes cold paths far more aggressively; if
		// even that cannot number it, the routine runs uninstrumented
		// and is served by the edge profile alone.
		if plan.Reason == "too-many-paths" {
			tppPlan, tppErr := instr.Build(g, instr.TPP(), par, total)
			if tppErr == nil && tppPlan.Reason != "too-many-paths" {
				plan = tppPlan
				pr.Modes[f.Name] = ModeTPP
				s.emitDemote(par, f.Name, ModeTPP,
					"too-many-paths: demoted to TPP cold-path removal")
			} else {
				pr.Modes[f.Name] = ModeEdgeOnly
				s.emitDemote(par, f.Name, ModeEdgeOnly,
					"too-many-paths under TPP too: demoted to edge-only")
			}
		}
		plans[f.Name] = plan
		if plan.SACIterations > 0 {
			pr.SACAdjusted++
			if plan.SACIterations > pr.MaxSACIterations {
				pr.MaxSACIterations = plan.SACIterations
			}
		}
		if plan.Hash {
			pr.HashedRoutines++
		}
	}
	return nil
}

// baseFlowOf returns the routine's ground-truth dynamic path count,
// the flow at stake when a whole routine leaves path profiling.
func (s *Staged) baseFlowOf(fn string) int64 {
	if pp := s.Base.Paths[fn]; pp != nil {
		return pp.Total()
	}
	return 0
}

// emitDemote records a degraded-mode ladder step in the decision trace.
func (s *Staged) emitDemote(par instr.Params, fn string, to Mode, detail string) {
	if par.Trace == nil {
		return
	}
	par.Trace.Emit(telemetry.Event{
		Unit: par.Unit, Routine: fn, Kind: telemetry.EvModeDemote,
		Flow: s.baseFlowOf(fn), Detail: detail + " (" + to.String() + ")",
	})
}

// EdgeOverheadRun measures software edge-profiling instrumentation
// cost on the optimized program. The paper treats edge profiling as
// nearly free (sampling or hardware support, 0.5-3%); this models the
// naive software-counter alternative.
func (s *Staged) EdgeOverheadRun() (*vm.Result, error) {
	return vm.Run(s.Prog, vm.Options{
		Costs: s.Pipeline.Costs, Entry: s.Pipeline.Entry,
		MaxSteps: s.Pipeline.MaxSteps, EdgeInstrument: true,
		Metrics: s.Pipeline.Metrics,
	})
}

// Profilers returns the paper's three profiler configurations in
// presentation order.
func Profilers() []struct {
	Name string
	Tech instr.Techniques
} {
	return []struct {
		Name string
		Tech instr.Techniques
	}{
		{"PP", instr.PP()},
		{"TPP", instr.TPP()},
		{"PPP", instr.PPP()},
	}
}

// Ablations returns the Figure 13 leave-one-out configurations: PPP
// with one technique disabled. SAC and the global criterion are
// evaluated as one technique, as in the paper.
func Ablations() map[string]instr.Techniques {
	drop := func(mod func(*instr.Techniques)) instr.Techniques {
		t := instr.PPP()
		mod(&t)
		return t
	}
	return map[string]instr.Techniques{
		"SAC":  drop(func(t *instr.Techniques) { t.SelfAdjust = false; t.GlobalCold = false }),
		"FP":   drop(func(t *instr.Techniques) { t.FreePoison = false }),
		"Push": drop(func(t *instr.Techniques) { t.PushFurther = false }),
		"SPN":  drop(func(t *instr.Techniques) { t.SmartNumber = false }),
		"LC":   drop(func(t *instr.Techniques) { t.LowCoverage = false }),
	}
}

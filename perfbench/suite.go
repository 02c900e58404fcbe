package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"pathprof/internal/core"
	"pathprof/internal/eval"
	"pathprof/internal/instr"
	"pathprof/internal/lower"
	"pathprof/internal/profile"
	"pathprof/internal/vm"
	"pathprof/internal/workloads"
)

// hotTheta is the paper's hot-path threshold (0.125% of program flow).
const hotTheta = 0.00125

// suiteTailP is the suite's fixed tail percentile. Two whole passes
// (36 operations) leave ten samples beyond it.
const suiteTailP = 70

// programs returns the named workloads, or all 18 when names is nil.
func programs(names []string) []workloads.Workload {
	if names == nil {
		return workloads.All()
	}
	var out []workloads.Workload
	for _, n := range names {
		if w, ok := workloads.ByName(n); ok {
			out = append(out, w)
		}
	}
	return out
}

func workloadNames(ws []workloads.Workload) []string {
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.Name
	}
	return names
}

// suiteOut is what one suite operation produced.
type suiteOut struct {
	profilers map[string]profOutcome
	steps     int64   // instructions executed by the three profiled runs
	vmMS      float64 // wall time of those runs
}

// suiteOp takes one program through the paper's pipeline: stage, then
// profile with PP, TPP and PPP, then evaluate hot paths, accuracy and
// coverage. Staged.Profile is spelled out as its public parts (plan,
// instrumented run, evaluation) so each layer gets its own span.
func suiteOp(w workloads.Workload, tr *tracer, ref *programRef) (*core.Staged, suiteOut, error) {
	out := suiteOut{profilers: map[string]profOutcome{}}
	tr.begin(layerLower)
	_, err := lower.Compile(w.Source, lower.Options{})
	tr.end()
	if err != nil {
		return nil, out, fmt.Errorf("%s: compile: %w", w.Name, err)
	}
	pl := core.NewPipeline(w.Name, w.Source)
	tr.begin(layerCore)
	st, err := pl.Stage()
	tr.end()
	if err != nil {
		return nil, out, err
	}
	type profiled struct {
		plans map[string]*instr.Plan
		run   *vm.Result
	}
	var runs []profiled
	for _, p := range core.Profilers() {
		tr.begin(layerInstr)
		plans, err := st.PlansFor(p.Name, p.Tech, pl.Instr.Placement)
		tr.end()
		if err != nil {
			return nil, out, err
		}
		tr.begin(layerVM)
		start := time.Now()
		run, err := vm.Run(st.Prog, vm.Options{
			Costs: pl.Costs, Entry: pl.Entry, MaxSteps: pl.MaxSteps,
			Plans: plans, CollectPaths: true, Backend: pl.Backend,
		})
		out.vmMS += msSince(start)
		tr.end()
		if err != nil {
			return nil, out, fmt.Errorf("%s/%s: instrumented run: %w", w.Name, p.Name, err)
		}
		if run.Ret != st.Base.Ret {
			return nil, out, fmt.Errorf("%s/%s: instrumentation changed the result", w.Name, p.Name)
		}
		out.steps += run.Steps
		runs = append(runs, profiled{plans, run})
	}

	tr.begin(layerEval)
	evals := make([]*eval.Program, len(runs))
	for i, r := range runs {
		evals[i] = eval.New(evalRoutines(r.plans, r.run))
	}
	hot := evals[0].HotPaths(hotTheta)
	acc := []float64{
		eval.Accuracy(hot, evals[0].EdgeEstimatedProfile(hotTheta)),
		eval.Accuracy(hot, evals[1].EstimatedProfile(hotTheta)),
		eval.Accuracy(hot, evals[2].EstimatedProfile(hotTheta)),
	}
	cov := []float64{
		evals[0].EdgeCoverage().Value(),
		evals[1].Coverage().Value(),
		evals[2].Coverage().Value(),
	}
	tr.end()

	tr.begin(layerProfile)
	for i, p := range core.Profilers() {
		r := runs[i].run
		out.profilers[p.Name] = profOutcome{
			Fingerprint: fmt.Sprintf("%016x", (&profile.Snapshot{Paths: r.Paths, Tables: r.Tables}).Fingerprint()),
			BaseCost:    r.BaseCost,
			InstrCost:   r.InstrCost,
			Accuracy:    acc[i],
			Coverage:    cov[i],
		}
	}
	tr.end()
	if ref != nil {
		if err := ref.checkProfilers(w.Name, out.profilers); err != nil {
			return st, out, err
		}
	}
	return st, out, nil
}

// evalRoutines pairs each routine's plan with its counter table and
// exact path profile, in routine-name order, as Staged.Profile does.
func evalRoutines(plans map[string]*instr.Plan, run *vm.Result) []*eval.Routine {
	var rs []*eval.Routine
	for _, n := range sortedKeys(plans) {
		rs = append(rs, &eval.Routine{Name: n, Plan: plans[n], Table: run.Tables[n], Truth: run.Paths[n]})
	}
	return rs
}

// overheadPct returns the profile's modeled instrumentation overhead, in
// percent of base cost (cost-model units, never wall clock).
func (o profOutcome) overheadPct() float64 {
	if o.BaseCost == 0 {
		return 0
	}
	return 100 * float64(o.InstrCost) / float64(o.BaseCost)
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// runSuite is the suite workload: one closed-loop client taking whole
// seeded passes over the programs until the run time is used up.
func runSuite(cfg config) (metrics, tally, error) {
	ref, err := loadReference()
	if err != nil {
		return nil, tally{}, err
	}
	ws := programs(cfg.programs)
	byName := map[string]workloads.Workload{}
	for _, w := range ws {
		byName[w.Name] = w
	}
	setup, err := timeSetup(suiteSetupReps, func() (func(), error) {
		// Front-end check of every input, then untimed warm-up
		// operations on the cheapest programs.
		for _, w := range ws {
			if _, err := lower.Compile(w.Source, lower.Options{}); err != nil {
				return nil, fmt.Errorf("%s: compile: %w", w.Name, err)
			}
		}
		for _, name := range warmupPrograms(ws) {
			pr, err := ref.program(name)
			if err != nil {
				return nil, err
			}
			if _, _, err := suiteOp(byName[name], nil, pr); err != nil {
				return nil, err
			}
		}
		return func() {}, nil
	})
	if err != nil {
		return nil, tally{}, err
	}

	plan := passes(&rng{s: cfg.seed}, workloadNames(ws), maxPasses)
	fmt.Printf("suite: op list %s (%d programs per pass, seed %d)\n", opListHash(passLines(plan)), len(ws), cfg.seed)

	var ohs, accs, steps, nsStep []float64
	tr := newTracer(true, "suite", time.Now())
	ps, t := runPasses(cfg, plan, suiteTailP, tr, func(name string, tr *tracer) error {
		pr, err := ref.program(name)
		if err != nil {
			return err
		}
		_, out, err := suiteOp(byName[name], tr, pr)
		if err != nil {
			return err
		}
		if tr != nil {
			steps = append(steps, float64(out.steps))
			nsStep = append(nsStep, out.vmMS*1e6/float64(out.steps))
		} else {
			ohs = append(ohs, out.profilers["PPP"].overheadPct())
			accs = append(accs, 100*out.profilers["PPP"].Accuracy)
		}
		return nil
	})
	fmt.Printf("suite: %d untraced passes, %d operations, tail p%d\n", ps.passes, len(ps.lat.samples), suiteTailP)

	m := metrics{}
	if cfg.trace {
		ops := tr.breakdown()
		m.set("core.stage_ms", "ms", layerMedian(ops, layerCore))
		m.set("lower.compile_ms", "ms", layerMedian(ops, layerLower))
		m.set("vm.run_ms", "ms", layerMedian(ops, layerVM))
		m.set("vm.ns_per_step", "ns", median(nsStep))
		m.set("vm.steps", "count", mean(steps))
		m.set("instr.plan_ms", "ms", layerMedian(ops, layerInstr))
		m.set("eval.ms", "ms", layerMedian(ops, layerEval))
		m.set("suite.allocs_per_op", "count", median(ps.mallocs))
		m.set("suite.alloc_mb_per_op", "MB", median(ps.allocMB))
		ps.traceMetrics(m, ops)
		return m, t, writeTrace(cfg, tr)
	}
	m.set("setup_s", "s", setup)
	if err := ps.report(m); err != nil {
		return nil, t, err
	}
	m.set("ppp_overhead_pct", "%", mean(ohs))
	m.set("ppp_accuracy_pct", "%", mean(accs))
	return m, t, nil
}

// warmupPrograms picks the warm-up programs: parser, gap and applu are
// the cheapest of the 18 (about 70, 70 and 110 ms); a subset with none
// of them warms up on its first program.
func warmupPrograms(ws []workloads.Workload) []string {
	var names []string
	for _, w := range ws {
		switch w.Name {
		case "parser", "gap", "applu":
			names = append(names, w.Name)
		}
	}
	if names == nil {
		names = []string{ws[0].Name}
	}
	return names
}

// mean sums in sorted order, so the value does not depend on the
// order the seed gave the operations.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

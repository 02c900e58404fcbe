package main

import (
	"fmt"
	"time"

	"pathprof/internal/core"
	"pathprof/internal/eval"
	"pathprof/internal/instr"
	"pathprof/internal/planir"
	"pathprof/internal/verify"
	"pathprof/internal/vm"
	"pathprof/internal/workloads"
)

// replanTailP is the replan workload's fixed tail percentile.
const replanTailP = 95

var placements = []instr.Placement{instr.PlaceSpanning, instr.PlaceMinCost}

// replanOut is what one replan operation produced.
type replanOut struct {
	plans      map[string]planOutcome
	lowerMS    float64 // lowering the plans to plan IR and encoding it
	buildMS    float64 // engine builds, less their translation validation
	validateUS int64
	sacRounds  int
	hashed     int
	bytes      int
}

// replanOp re-plans one staged program for the dynamic optimizer: for
// PP, TPP and PPP under both probe placements it builds the plans,
// proves them over all paths, lowers them to plan IR, and builds a
// compiled engine with translation validation. Nothing executes.
func replanOp(st *core.Staged, tr *tracer, ref *programRef) (replanOut, error) {
	out := replanOut{plans: map[string]planOutcome{}}
	name := st.Pipeline.Name
	var encoded [][]byte
	var keys []string
	for _, p := range core.Profilers() {
		for _, pl := range placements {
			key := p.Name + "/" + pl.String()
			tr.begin(layerInstr)
			plans, err := st.PlansGuided(p.Name, p.Tech, pl, nil)
			tr.end()
			if err != nil {
				return out, err
			}
			for _, pn := range plans {
				out.sacRounds += pn.SACIterations
				if pn.Hash {
					out.hashed++
				}
			}
			tr.begin(layerVerify)
			_, ok := verify.CheckAll(plans, verify.Options{})
			tr.end()

			tr.begin(layerPlanIR)
			lowerStart := time.Now()
			data := planir.FromPlans(plans).Encode()
			out.lowerMS += msSince(lowerStart)
			tr.end()
			out.bytes += len(data)

			tr.begin(layerCompile)
			engStart := time.Now()
			eng, err := vm.NewEngine(st.Prog, vm.Options{Plans: plans, Backend: vm.BackendCompiled})
			engMS := msSince(engStart)
			tr.end()
			if err != nil {
				return out, fmt.Errorf("%s/%s: engine: %w", name, key, err)
			}
			var validateUS int64
			for _, us := range eng.ValidateUs() {
				validateUS += us
			}
			out.validateUS += validateUS
			out.buildMS += engMS - float64(validateUS)/1000
			out.plans[key] = planOutcome{ProofOK: ok}
			encoded = append(encoded, data)
			keys = append(keys, key)
		}
	}

	// Check what a consumer of the served plans reads: decode each
	// and fingerprint it.
	tr.begin(layerPlanIR)
	for i, data := range encoded {
		prog, err := planir.Decode(data)
		if err != nil {
			tr.end()
			return out, fmt.Errorf("%s/%s: decode plan: %w", name, keys[i], err)
		}
		o := out.plans[keys[i]]
		o.Fingerprint = fmt.Sprintf("%016x", prog.Fingerprint())
		out.plans[keys[i]] = o
	}
	tr.end()
	if ref != nil {
		for _, k := range keys {
			if err := ref.checkPlan(name, k, out.plans[k]); err != nil {
				return out, err
			}
		}
	}
	return out, nil
}

// replanEnv is the replan workload's set-up: every program staged.
type replanEnv struct {
	staged map[string]*core.Staged
}

func setupReplan(ws []workloads.Workload) (*replanEnv, error) {
	env := &replanEnv{staged: map[string]*core.Staged{}}
	for _, w := range ws {
		st, err := core.NewPipeline(w.Name, w.Source).Stage()
		if err != nil {
			return nil, err
		}
		env.staged[w.Name] = st
	}
	return env, nil
}

// pppModel measures, once per program after the timed passes, the
// modeled overhead and hot-path accuracy of the PPP plans replan
// serves: the same PlansGuided plans, under both placements, each run
// instrumented once. The means are over programs and placements.
func (env *replanEnv) pppModel() (ohPct, accPct float64, err error) {
	var ohs, accs []float64
	for _, name := range sortedKeys(env.staged) {
		st := env.staged[name]
		pl := st.Pipeline
		for _, place := range placements {
			plans, err := st.PlansGuided("PPP", instr.PPP(), place, nil)
			if err != nil {
				return 0, 0, err
			}
			run, err := vm.Run(st.Prog, vm.Options{
				Costs: pl.Costs, Entry: pl.Entry, MaxSteps: pl.MaxSteps,
				Plans: plans, CollectPaths: true, Backend: pl.Backend,
			})
			if err != nil {
				return 0, 0, fmt.Errorf("%s/PPP/%s: instrumented run: %w", name, place, err)
			}
			ohs = append(ohs, 100*run.Overhead())
			// The run records the exact paths too, so it supplies the
			// actual hot set.
			ev := eval.New(evalRoutines(plans, run))
			accs = append(accs, 100*eval.Accuracy(ev.HotPaths(hotTheta), ev.EstimatedProfile(hotTheta)))
		}
	}
	return mean(ohs), mean(accs), nil
}

// runReplan is the replan workload: one closed-loop client taking
// whole seeded passes over the staged programs.
func runReplan(cfg config) (metrics, tally, error) {
	ref, err := loadReference()
	if err != nil {
		return nil, tally{}, err
	}
	ws := programs(cfg.programs)
	var env *replanEnv
	setup, err := timeSetup(replanSetupReps, func() (func(), error) {
		e, err := setupReplan(ws)
		env = e
		return func() {}, err
	})
	if err != nil {
		return nil, tally{}, err
	}

	plan := passes(&rng{s: cfg.seed}, workloadNames(ws), maxPasses)
	fmt.Printf("replan: op list %s (%d programs per pass, seed %d)\n", opListHash(passLines(plan)), len(ws), cfg.seed)

	var buildMS, validateUS, lowerMS, sac, hashed, irBytes []float64
	tr := newTracer(true, "replan", time.Now())
	ps, t := runPasses(cfg, plan, replanTailP, tr, func(name string, tr *tracer) error {
		pr, err := ref.program(name)
		if err != nil {
			return err
		}
		out, err := replanOp(env.staged[name], tr, pr)
		if err == nil && tr != nil {
			buildMS = append(buildMS, out.buildMS)
			validateUS = append(validateUS, float64(out.validateUS))
			lowerMS = append(lowerMS, out.lowerMS)
			sac = append(sac, float64(out.sacRounds))
			hashed = append(hashed, float64(out.hashed))
			irBytes = append(irBytes, float64(out.bytes))
		}
		return err
	})
	fmt.Printf("replan: %d operations, tail p%d\n", len(ps.lat.samples), replanTailP)

	m := metrics{}
	if cfg.trace {
		ops := tr.breakdown()
		m.set("compile.build_ms", "ms", median(buildMS))
		m.set("compile.validate_us", "us", median(validateUS))
		m.set("instr.plan_ms", "ms", layerMedian(ops, layerInstr))
		m.set("instr.sac_rounds", "count", mean(sac))
		m.set("instr.hashed_routines", "count", mean(hashed))
		m.set("verify.proof_ms", "ms", layerMedian(ops, layerVerify))
		m.set("planir.lower_ms", "ms", median(lowerMS))
		m.set("planir.bytes", "count", mean(irBytes))
		m.set("replan.allocs_per_op", "count", median(ps.mallocs))
		ps.traceMetrics(m, ops)
		return m, t, writeTrace(cfg, tr)
	}
	oh, acc, err := env.pppModel()
	if err != nil {
		return nil, t, err
	}
	m.set("setup_s", "s", setup)
	if err := ps.report(m); err != nil {
		return nil, t, err
	}
	m.set("ppp_overhead_pct", "%", oh)
	m.set("ppp_accuracy_pct", "%", acc)
	return m, t, nil
}

package vm_test

import (
	"testing"

	"pathprof/internal/telemetry"
	"pathprof/internal/vm"
)

// TestVMMetricsMatchExactProfile cross-checks the hot-loop counters
// against the exact profile the same run collects: every completed
// Ball-Larus path bumps ppp_vm_paths_total and observes its length, so
// the folded counter must equal the path profile's total flow.
func TestVMMetricsMatchExactProfile(t *testing.T) {
	prog := hotProgram(t)
	forEachExecutor(t, func(t *testing.T, on selectExec) {
		reg := telemetry.NewRegistry(1)
		m := telemetry.NewVMMetrics(reg)
		res, err := vm.Run(prog, on(vm.Options{CollectEdges: true, CollectPaths: true, Metrics: m}))
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, pp := range res.Paths {
			total += pp.Total()
		}
		if total == 0 {
			t.Fatal("workload completed no paths; probe is vacuous")
		}
		if got := m.Paths.Value(); got != total {
			t.Errorf("ppp_vm_paths_total = %d, path profile total = %d", got, total)
		}
		if got := m.PathLen.Count(); got != total {
			t.Errorf("ppp_vm_path_len count = %d, want one observation per path (%d)", got, total)
		}
		if m.Transitions.Value() == 0 {
			t.Error("ppp_vm_transitions_total stayed zero over a multi-block run")
		}

		// The same run without a sink must execute identically.
		bare, err := vm.Run(prog, on(vm.Options{CollectEdges: true, CollectPaths: true}))
		if err != nil {
			t.Fatal(err)
		}
		if bare.Steps != res.Steps || bare.Ret != res.Ret {
			t.Errorf("metrics changed execution: steps %d vs %d, ret %d vs %d",
				res.Steps, bare.Steps, res.Ret, bare.Ret)
		}
		if bare.Snapshot().Fingerprint() != res.Snapshot().Fingerprint() {
			t.Error("metrics changed the collected profile")
		}
	})
}

// TestVMMetricsInstrumentedCounters runs a PP plan and checks the
// instrumentation-op counters move: ops execute on transitions and
// table increments record completed instrumented paths.
func TestVMMetricsInstrumentedCounters(t *testing.T) {
	prog := hotProgram(t)
	plans := ppPlans(t, prog)
	forEachExecutor(t, func(t *testing.T, on selectExec) {
		reg := telemetry.NewRegistry(1)
		m := telemetry.NewVMMetrics(reg)
		if _, err := vm.Run(prog, on(vm.Options{Plans: plans, CollectPaths: true, Metrics: m})); err != nil {
			t.Fatal(err)
		}
		if m.Ops.Value() == 0 {
			t.Error("ppp_vm_instr_ops_total stayed zero under a PP plan")
		}
		if m.TableIncs.Value() == 0 {
			t.Error("ppp_vm_table_incs_total stayed zero under a PP plan")
		}
	})
}

// TestReplicatedMetricsFoldAcrossWorkers runs the same replicated
// collection at several worker counts, each into a fresh registry, and
// demands the folded totals agree: sharding moves increments between
// cells, never changes their sum.
func TestReplicatedMetricsFoldAcrossWorkers(t *testing.T) {
	prog := hotProgram(t)
	const replicas = 8
	forEachExecutor(t, func(t *testing.T, on selectExec) {
		var wantPaths, wantTrans int64
		for _, par := range []int{1, 2, 4, 8} {
			reg := telemetry.NewRegistry(par)
			m := telemetry.NewVMMetrics(reg)
			opts := on(vm.Options{CollectEdges: true, CollectPaths: true, Metrics: m})
			if _, err := vm.RunReplicated(prog, opts, replicas, par); err != nil {
				t.Fatal(err)
			}
			paths, trans := m.Paths.Value(), m.Transitions.Value()
			if paths == 0 || trans == 0 {
				t.Fatalf("par=%d: counters stayed zero (paths=%d transitions=%d)", par, paths, trans)
			}
			if par == 1 {
				wantPaths, wantTrans = paths, trans
				continue
			}
			if paths != wantPaths || trans != wantTrans {
				t.Errorf("par=%d: folded (paths=%d, transitions=%d), want (%d, %d)",
					par, paths, trans, wantPaths, wantTrans)
			}
		}
	})
}

// TestRunAllocsWithMetricsInstalled extends the steady-state allocation
// budget to the installed-sink path on the reference interpreter:
// per-transition metric bumps must not allocate, so a metered run stays
// within the same per-run constant as a bare one.
func TestRunAllocsWithMetricsInstalled(t *testing.T) {
	m := telemetry.NewVMMetrics(telemetry.NewRegistry(1))
	allocs, _ := engineRunAllocs(t, vm.Interp(vm.Options{CollectEdges: true, CollectPaths: true, Metrics: m}))
	// Same budget as TestSteadyStateTransitionAllocs: run setup only,
	// nothing proportional to the ~200k metered transitions.
	if allocs > runAllocBudget {
		t.Errorf("metered Engine.Run allocated %.0f times; budget %d (telemetry bumps allocate)", allocs, runAllocBudget)
	}
}

// TestCompiledEngineRunAllocsWithMetrics is the compiled twin: with the
// engine built once outside the measurement, a metered Engine.Run on
// the compiled executor stays within the same per-run constant.
func TestCompiledEngineRunAllocsWithMetrics(t *testing.T) {
	m := telemetry.NewVMMetrics(telemetry.NewRegistry(1))
	allocs, _ := engineRunAllocs(t, vm.Options{CollectEdges: true, CollectPaths: true, Metrics: m})
	if allocs > runAllocBudget {
		t.Errorf("metered Engine.Run allocated %.0f times; budget %d (telemetry bumps allocate)", allocs, runAllocBudget)
	}
}

package core_test

import (
	"testing"

	"pathprof/internal/cfg"
	"pathprof/internal/core"
	"pathprof/internal/flow"
	"pathprof/internal/instr"
	"pathprof/internal/planir"
	"pathprof/internal/profile"
	"pathprof/internal/workloads"
)

// TestDerivedTotalMatchesStaging pins the plan total derived from a
// guide profile: per routine, the unit flow into the exit of the
// routine's DAG (flow.TotalFlow) equals the staging run's exact path
// count, so for the staging guide the derived program total equals
// TotalUnitFlow and plans built from it are the plans built from the
// staging total.
func TestDerivedTotalMatchesStaging(t *testing.T) {
	ws := workloads.All()
	if testing.Short() {
		ws = ws[:4]
	}
	for _, w := range ws {
		s, err := core.NewPipeline(w.Name, w.Source).Stage()
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, f := range s.Prog.Funcs {
			g, err := f.CFG()
			if err != nil {
				t.Fatal(err)
			}
			s.Base.Edges[f.Name].ApplyTo(g)
			d, err := cfg.BuildDAG(g)
			if err != nil {
				t.Fatal(err)
			}
			u := flow.TotalFlow(d, flow.Unit)
			if want := s.Base.Paths[f.Name].Total(); u != want {
				t.Errorf("%s/%s: DAG exit flow %d, staged path count %d", w.Name, f.Name, u, want)
			}
			total += u
		}
		if total != s.TotalUnitFlow() {
			t.Errorf("%s: derived total %d, TotalUnitFlow %d", w.Name, total, s.TotalUnitFlow())
		}
	}
}

// TestPlansScaleInvariant checks that plans depend on the guide
// profile's shape, not its scale: plans guided by 1, 10 and 100 merged
// copies of the staging snapshot lower to one plan-IR fingerprint,
// the fingerprint of the plans PlansFor builds from the staging run.
func TestPlansScaleInvariant(t *testing.T) {
	for _, name := range []string{"vpr", "mcf", "gap", "mesa"} {
		w, _ := workloads.ByName(name)
		pl := core.NewPipeline(w.Name, w.Source)
		s, err := pl.Stage()
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range core.Profilers() {
			plans, err := s.PlansFor(p.Name, p.Tech, instr.PlaceSpanning)
			if err != nil {
				t.Fatal(err)
			}
			want := planir.FromPlans(plans).Fingerprint()
			for _, k := range []int{1, 10, 100} {
				agg := &profile.Snapshot{
					Edges:  map[string]*profile.EdgeProfile{},
					Paths:  map[string]*profile.PathProfile{},
					Tables: map[string]*profile.Table{},
				}
				for i := 0; i < k; i++ {
					agg.MergeSnapshot(&profile.Snapshot{Edges: s.Base.Edges})
				}
				plans, err := s.PlansGuided(p.Name, p.Tech, instr.PlaceSpanning, agg.Edges)
				if err != nil {
					t.Fatal(err)
				}
				if got := planir.FromPlans(plans).Fingerprint(); got != want {
					t.Errorf("%s/%s: plans guided by %d copies fingerprint %016x, staging plans %016x",
						name, p.Name, k, got, want)
				}
			}
		}
	}
}

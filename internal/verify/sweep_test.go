package verify_test

import (
	"sort"
	"testing"

	"pathprof/internal/bench"
	"pathprof/internal/core"
	"pathprof/internal/instr"
)

// TestVerifySweep runs the static verifier over every routine plan of
// every workload × technique combination: the three paper profilers
// (PP, TPP, PPP) plus the five Figure 13 leave-one-out ablations
// (SAC, FP, Push, SPN, LC) under the suite's placement, and the three
// paper profilers again under min-cost probe placement. Short mode
// keeps a representative subset; CI runs the full matrix as its own
// step.
func TestVerifySweep(t *testing.T) {
	s := bench.NewSuite()
	names := make([]string, 0, len(s.Workloads))
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	if testing.Short() && len(names) > 4 {
		names = names[:4]
	}

	// Every plan goes through both the all-paths proof and the
	// enumeration oracle, and any disagreement between them fails the
	// sweep, so a passing sweep is also a differential test of the
	// proof.
	checkPlans := func(t *testing.T, plans map[string]*instr.Plan) {
		t.Helper()
		if len(plans) == 0 {
			t.Error("no plans to verify")
		}
		routines := make([]string, 0, len(plans))
		for n := range plans {
			routines = append(routines, n)
		}
		sort.Strings(routines)
		for _, n := range routines {
			proof, enum, err := crossCheck(plans[n])
			if err != nil {
				t.Error(err)
			}
			for _, d := range proof.Diags {
				t.Errorf("%s", d)
			}
			for _, d := range enum.Diags {
				t.Errorf("enumeration: %s", d)
			}
		}
	}

	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			wr, err := s.Run(name)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			for prof, pr := range wr.Profilers {
				t.Run(prof, func(t *testing.T) { checkPlans(t, pr.Plans) })
			}
			for ab := range core.Ablations() {
				pr, err := s.Ablate(name, ab)
				if err != nil {
					t.Fatalf("ablate %s: %v", ab, err)
				}
				t.Run("PPP-"+ab, func(t *testing.T) { checkPlans(t, pr.Plans) })
			}
			for _, prof := range core.Profilers() {
				plans, err := wr.Staged.PlansFor(prof.Name, prof.Tech, instr.PlaceMinCost)
				if err != nil {
					t.Fatalf("%s mincost plans: %v", prof.Name, err)
				}
				t.Run(prof.Name+"-mincost", func(t *testing.T) { checkPlans(t, plans) })
			}
		})
	}
}

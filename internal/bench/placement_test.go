package bench_test

import (
	"strings"
	"testing"

	"pathprof/internal/instr"
)

// TestPlacementTableRenders runs the spanning-vs-mincost head-to-head
// over the small suite. Beyond rendering, this is the end-to-end
// acceptance check for min-cost placement: every mincost cell's
// recovered snapshot must fingerprint identically to the spanning run
// at every worker count, and mincost must place
// strictly fewer probe sites.
func TestPlacementTableRenders(t *testing.T) {
	s := stagedSuite(t)
	var sb strings.Builder
	rep, err := s.PlacementTable(&sb, 2)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Probe placement head-to-head", "mcf", "swim", "bit-identical"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	if rep.SiteWins != len(s.Workloads) {
		t.Errorf("mincost should win sites on every workload, got %d/%d", rep.SiteWins, len(s.Workloads))
	}
	for _, row := range rep.Rows {
		if row.MinCostSites >= row.SpanningSites {
			t.Errorf("%s: mincost sites %d not below spanning %d", row.Workload, row.MinCostSites, row.SpanningSites)
		}
		for _, p := range row.Profilers {
			if p.StaticOps < 0 {
				t.Errorf("%s/%s: negative static ops", row.Workload, p.Profiler)
			}
			if p.MinCost.OverheadPct <= 0 || p.Spanning.OverheadPct <= 0 {
				t.Errorf("%s/%s: non-positive overhead (span %.2f, minc %.2f)",
					row.Workload, p.Profiler, p.Spanning.OverheadPct, p.MinCost.OverheadPct)
			}
		}
	}
}

// TestSuiteMinCostPlacementIdenticalFigures runs a whole suite with
// Placement=mincost and requires the headline metrics to match the
// spanning suite exactly: probe placement changes how edge counts are
// acquired, never what any figure reports.
func TestSuiteMinCostPlacementIdenticalFigures(t *testing.T) {
	span := stagedSuite(t)
	minc := smallSuite(t)
	minc.Placement = instr.PlaceMinCost
	h1, err := span.Headline()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := minc.Headline()
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range h1 {
		if h2[k] != v {
			t.Errorf("headline %s: spanning %v != mincost %v", k, v, h2[k])
		}
	}
}

package workloads_test

import (
	"strings"
	"testing"

	"pathprof/internal/core"
	"pathprof/internal/lower"
	"pathprof/internal/vm"
	"pathprof/internal/workloads"
)

func TestSuiteShape(t *testing.T) {
	all := workloads.All()
	if len(all) != 18 {
		t.Fatalf("suite has %d workloads, want 18 (one per SPEC2000 row)", len(all))
	}
	classes := map[string]int{}
	for _, w := range all {
		classes[w.Class]++
	}
	if classes["INT"] != 8 {
		t.Errorf("INT workloads = %d, want 8", classes["INT"])
	}
	if classes["FP"] != 10 {
		t.Errorf("FP workloads = %d, want 10", classes["FP"])
	}
	seen := map[string]bool{}
	for _, w := range all {
		if w.Name == "" || w.Source == "" || w.Desc == "" || w.SPEC == "" {
			t.Errorf("workload %q incomplete", w.Name)
		}
		if seen[w.Name] {
			t.Errorf("duplicate workload %q", w.Name)
		}
		seen[w.Name] = true
		got, ok := workloads.ByName(w.Name)
		if !ok || got.Name != w.Name {
			t.Errorf("ByName(%q) failed", w.Name)
		}
	}
	if _, ok := workloads.ByName("nope"); ok {
		t.Error("ByName accepted unknown name")
	}
	if got := workloads.Names(); len(got) != 18 || got[0] != "vpr" {
		t.Errorf("Names() = %v", got)
	}
}

// TestAllCompileAndRun checks every workload compiles, validates, runs
// deterministically, and prints at least one checksum.
func TestAllCompileAndRun(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			prog, err := lower.Compile(w.Source, lower.Options{})
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			var out strings.Builder
			r1, err := vm.Run(prog, vm.Options{Output: &out})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if out.Len() == 0 {
				t.Error("no checksum printed")
			}
			r2, err := vm.Run(prog, vm.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if r1.Ret != r2.Ret {
				t.Errorf("nondeterministic: %d vs %d", r1.Ret, r2.Ret)
			}
			if r1.Steps < 100000 {
				t.Errorf("workload too small: %d steps", r1.Steps)
			}
			if r1.Steps > 60_000_000 {
				t.Errorf("workload too large: %d steps", r1.Steps)
			}
		})
	}
}

// TestStagedInvariants runs the full optimization staging on every
// workload and checks the semantic and structural invariants.
func TestStagedInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("staging all workloads is slow")
	}
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			s, err := core.NewPipeline(w.Name, w.Source).Stage()
			if err != nil {
				t.Fatal(err)
			}
			if s.Base.Ret != s.OriginalRun.Ret {
				t.Fatal("optimizations changed the result")
			}
			opt := core.StatsOf(s.Base)
			if opt.DynPaths < 5000 {
				t.Errorf("only %d dynamic paths", opt.DynPaths)
			}
			// Inlining + unrolling must not shrink average path length.
			orig := core.StatsOf(s.OriginalRun)
			if opt.AvgInstrs < orig.AvgInstrs {
				t.Errorf("paths shrank: %.1f -> %.1f", orig.AvgInstrs, opt.AvgInstrs)
			}
			pct := s.PctCallsInlined()
			if pct < 0 || pct > 1 {
				t.Errorf("%% inlined out of range: %v", pct)
			}
			switch w.Name {
			case "crafty", "wupwise", "swim", "mgrid", "applu", "mesa":
				// Table 1 reports 0% (or ~0) for these.
				if pct > 0.05 {
					t.Errorf("%s inlined %.0f%%, want ~0%%", w.Name, 100*pct)
				}
			case "mcf", "art", "equake", "apsi":
				if pct < 0.5 {
					t.Errorf("%s inlined %.0f%%, want high", w.Name, 100*pct)
				}
			}
		})
	}
}

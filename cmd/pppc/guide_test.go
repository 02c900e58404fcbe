package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"pathprof/internal/core"
	"pathprof/internal/instr"
	"pathprof/internal/planir"
	"pathprof/internal/profile"
	"pathprof/internal/snapshot"
	"pathprof/internal/vm"
	"pathprof/internal/workloads"
)

// TestGuideRoundTrip checks that a guide survives PPSNAP: for every
// workload, profiler and placement, plans guided by the bytes
// -save-profile writes, read back the way -load-profile reads them,
// lower to the plan-IR fingerprint of the plans the staged run guides.
func TestGuideRoundTrip(t *testing.T) {
	for _, w := range workloads.All() {
		staged, err := core.NewPipeline(w.Name, w.Source).Stage()
		if err != nil {
			t.Fatal(err)
		}
		guide, err := decodeGuide(encodeGuide(staged))
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		// The guide must be the staged profile itself, not an empty map
		// that planning would replace with the staged profile anyway.
		for fn, ep := range staged.Base.Edges {
			got := guide[fn]
			if got == nil || got.Calls != ep.Calls || !equalFreq(got, ep) {
				t.Fatalf("%s/%s: edge profile changed in the round trip", w.Name, fn)
			}
		}
		if len(guide) != len(staged.Base.Edges) {
			t.Fatalf("%s: %d routines read back, %d saved", w.Name, len(guide), len(staged.Base.Edges))
		}
		for _, p := range core.Profilers() {
			for _, pl := range []instr.Placement{instr.PlaceSpanning, instr.PlaceMinCost} {
				want, err := staged.PlansFor(p.Name, p.Tech, pl)
				if err != nil {
					t.Fatal(err)
				}
				got, err := staged.PlansGuided(p.Name, p.Tech, pl, guide)
				if err != nil {
					t.Fatal(err)
				}
				if g, w2 := planir.FromPlans(got).Fingerprint(), planir.FromPlans(want).Fingerprint(); g != w2 {
					t.Errorf("%s/%s/%s: guided plans %016x, staged plans %016x", w.Name, p.Name, pl, g, w2)
				}
			}
		}
	}
}

func equalFreq(a, b *profile.EdgeProfile) bool {
	fa, fb := a.Freq(), b.Freq()
	if len(fa) != len(fb) {
		return false
	}
	for k, n := range fa {
		if fb[k] != n {
			return false
		}
	}
	return true
}

// withoutGuideLines drops the lines that say where a guide went or
// came from, leaving what the guide decides.
func withoutGuideLines(out string) string {
	lines := strings.Split(out, "\n")
	return strings.Join(slices.DeleteFunc(lines, func(l string) bool {
		return strings.HasPrefix(l, "edge profile saved to ") || strings.HasPrefix(l, "guiding instrumentation with ")
	}), "\n")
}

// TestGuideCLI drives -save-profile and -load-profile through the CLI:
// a run guided by its own saved guide prints the same plans and
// results as the run that saved it.
func TestGuideCLI(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mcf.guide.ppsnap")
	code, saved, stderr := exec(t, "-workload", "mcf", "-dump-plans", "-save-profile", path)
	if code != 0 {
		t.Fatalf("save run exited %d\nstderr: %s", code, stderr)
	}
	code, loaded, stderr := exec(t, "-workload", "mcf", "-dump-plans", "-load-profile", path)
	if code != 0 {
		t.Fatalf("load run exited %d\nstderr: %s", code, stderr)
	}
	if !strings.Contains(loaded, "guiding instrumentation with "+path) {
		t.Fatalf("load run does not name its guide:\n%s", loaded)
	}
	if !strings.Contains(saved, "plan main: instrumented=") {
		t.Fatalf("no plans dumped:\n%s", saved)
	}
	if a, b := withoutGuideLines(saved), withoutGuideLines(loaded); a != b {
		t.Errorf("plans differ with the saved guide\nsaved run:\n%s\nguided run:\n%s", a, b)
	}
}

// TestGuideAcceptsAggregate loads a profile service style aggregate:
// path-instrumented runs that also collected edges, merged as pppd
// merges uploads. Its edge profiles have the staged profile's shape,
// so the guided run plans and measures exactly as the unguided one.
func TestGuideAcceptsAggregate(t *testing.T) {
	w, _ := workloads.ByName("mcf")
	staged, err := core.NewPipeline(w.Name, w.Source).Stage()
	if err != nil {
		t.Fatal(err)
	}
	plans, err := staged.PlansFor("PPP", instr.PPP(), instr.PlaceSpanning)
	if err != nil {
		t.Fatal(err)
	}
	run, err := vm.Run(staged.Prog, vm.Options{CollectEdges: true, CollectPaths: true, Plans: plans})
	if err != nil {
		t.Fatal(err)
	}
	agg := profile.NewSnapshot()
	for i := 0; i < 3; i++ {
		agg.MergeSnapshot(run.Snapshot())
	}
	path := filepath.Join(t.TempDir(), "merged.ppsnap")
	if err := os.WriteFile(path, snapshot.Encode(agg), 0o644); err != nil {
		t.Fatal(err)
	}

	code, plain, stderr := exec(t, "-workload", "mcf", "-dump-plans")
	if code != 0 {
		t.Fatalf("unguided run exited %d\nstderr: %s", code, stderr)
	}
	code, guided, stderr := exec(t, "-workload", "mcf", "-dump-plans", "-load-profile", path)
	if code != 0 {
		t.Fatalf("aggregate guide refused: exit %d\nstderr: %s", code, stderr)
	}
	if !strings.Contains(guided, "guiding instrumentation with "+path) {
		t.Fatalf("guided run does not name its guide:\n%s", guided)
	}
	if a, b := withoutGuideLines(plain), withoutGuideLines(guided); a != b {
		t.Errorf("aggregate-guided run differs\nunguided:\n%s\nguided:\n%s", a, b)
	}
}

// TestGuideRefusesNonGuides feeds -load-profile files that are not
// guides: damaged PPSNAP bytes, an empty file, and a path-instrumented
// run's snapshot (-snapshot output), which has no edge profile. Each
// must exit nonzero with a diagnostic, never panic.
func TestGuideRefusesNonGuides(t *testing.T) {
	dir := t.TempDir()
	guide := filepath.Join(dir, "mcf.guide.ppsnap")
	if code, _, stderr := exec(t, "-workload", "mcf", "-save-profile", guide); code != 0 {
		t.Fatalf("save run exited %d\nstderr: %s", code, stderr)
	}
	data, err := os.ReadFile(guide)
	if err != nil {
		t.Fatal(err)
	}
	flipped := slices.Clone(data)
	flipped[len(flipped)/2] ^= 0x40
	edgeless := filepath.Join(dir, "run.ppsnap")
	if code, _, stderr := exec(t, "-workload", "mcf", "-snapshot", edgeless); code != 0 {
		t.Fatalf("snapshot run exited %d\nstderr: %s", code, stderr)
	}

	cases := []struct {
		name, path, want string
	}{
		{"flipped-byte", writeFile(t, "flipped.ppsnap", string(flipped)), "corrupt"},
		{"truncated", writeFile(t, "truncated.ppsnap", string(data[:len(data)-5])), "corrupt"},
		{"empty", writeFile(t, "empty.ppsnap", ""), "corrupt"},
		{"edge-less-snapshot", edgeless, "no edge profile"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, _, stderr := exec(t, "-workload", "mcf", "-load-profile", c.path)
			if code == 0 {
				t.Fatalf("non-guide accepted\nstderr: %s", stderr)
			}
			if !strings.Contains(stderr, "load profile") || !strings.Contains(stderr, c.want) {
				t.Errorf("diagnostic %q does not say %q", stderr, c.want)
			}
		})
	}
}

package bench_test

import (
	"strings"
	"testing"

	"pathprof/internal/vm"
)

// TestThroughputReportRenders runs the scaling sweep over the small
// suite and requires the merge-determinism check to pass for every
// workload and mode.
func TestThroughputReportRenders(t *testing.T) {
	s := stagedSuite(t)
	var sb strings.Builder
	if err := s.ThroughputReport(&sb, 4); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Sharded collection throughput", "mcf", "swim", "exact", "PP", "identical"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "DIVERGED") {
		t.Errorf("merged snapshots diverged across worker counts:\n%s", out)
	}
}

// TestReplicatedWorkloadBitIdentical drives a staged workload through
// RunReplicated at several worker counts and requires the merged
// edge/path profiles and instrumented-table totals to be bit-identical
// to the sequential replicated run — the acceptance bar for the
// sharded collector on real workload programs.
func TestReplicatedWorkloadBitIdentical(t *testing.T) {
	s := stagedSuite(t)
	wr, err := s.Run("mcf")
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		opts vm.Options
	}{
		{"exact", vm.Options{CollectEdges: true, CollectPaths: true}},
		{"PP", vm.Options{Plans: wr.Profilers["PP"].Plans, CollectPaths: true}},
	} {
		seq, err := vm.RunReplicated(wr.Staged.Prog, mode.opts, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		if seq.Ret != wr.Staged.Base.Ret {
			t.Fatalf("%s: replicated result %d != staged %d", mode.name, seq.Ret, wr.Staged.Base.Ret)
		}
		want := seq.Merged.Fingerprint()
		for _, par := range []int{2, 4} {
			rr, err := vm.RunReplicated(wr.Staged.Prog, mode.opts, 4, par)
			if err != nil {
				t.Fatal(err)
			}
			if fp := rr.Merged.Fingerprint(); fp != want {
				t.Errorf("%s par=%d: merged fingerprint %#x != sequential %#x", mode.name, par, fp, want)
			}
			for fn, tab := range seq.Merged.Tables {
				if got := rr.Merged.Tables[fn]; got.ColdTotal() != tab.ColdTotal() {
					t.Errorf("%s par=%d %s: cold total %d != %d", mode.name, par, fn, got.ColdTotal(), tab.ColdTotal())
				}
			}
		}
	}
}

// TestNETReportUsesCachedRun checks the tee: the NET predictor is
// populated during staging, so NETReport must work (and agree with a
// fresh predictor run) without re-executing any workload.
func TestNETReportUsesCachedRun(t *testing.T) {
	s := smallSuite(t)
	wr, err := s.Run("mcf")
	if err != nil {
		t.Fatal(err)
	}
	if wr.NET == nil || wr.NET.Heads() == 0 {
		t.Fatal("staging did not feed the NET predictor")
	}
	var sb strings.Builder
	if err := s.NETReport(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "mcf") {
		t.Errorf("NET report missing workload:\n%s", sb.String())
	}
}

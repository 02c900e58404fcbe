package bench_test

import (
	"strings"
	"sync"
	"testing"

	"pathprof/internal/bench"
	"pathprof/internal/workloads"
)

// smallSuite runs only two cheap workloads so the smoke tests stay
// fast; the full suite is exercised by the repository benchmarks.
func smallSuite(t *testing.T) *bench.Suite {
	t.Helper()
	s := bench.NewSuite()
	var sel []workloads.Workload
	for _, n := range []string{"mcf", "swim"} {
		w, ok := workloads.ByName(n)
		if !ok {
			t.Fatalf("missing workload %s", n)
		}
		sel = append(sel, w)
	}
	s.Workloads = sel
	return s
}

var (
	stagedOnce sync.Once
	staged     *bench.Suite
)

// stagedSuite is one small suite shared by the tests that only read
// its results, so its workloads stage once per test binary rather than
// once per test. Tests that check caching or concurrency, or that
// change a suite's settings, take a fresh smallSuite.
func stagedSuite(t *testing.T) *bench.Suite {
	t.Helper()
	stagedOnce.Do(func() { staged = smallSuite(t) })
	if staged == nil {
		t.Fatal("shared suite unavailable")
	}
	return staged
}

func TestSuiteRunCaches(t *testing.T) {
	s := smallSuite(t)
	a, err := s.Run("mcf")
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Run("mcf")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("Run did not cache")
	}
	if _, err := s.Run("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestTablesRender(t *testing.T) {
	s := stagedSuite(t)
	cases := []struct {
		name string
		run  func(*strings.Builder) error
		want []string
	}{
		{"table1", func(b *strings.Builder) error { return s.Table1(b) },
			[]string{"Table 1", "mcf", "swim", "INT avg", "FP avg", "speedup"}},
		{"table2", func(b *strings.Builder) error { return s.Table2(b) },
			[]string{"Table 2", "distinct", "hot.125"}},
		{"fig9", func(b *strings.Builder) error { return s.Figure9(b) },
			[]string{"Figure 9", "edge", "TPP", "PPP"}},
		{"fig10", func(b *strings.Builder) error { return s.Figure10(b) },
			[]string{"Figure 10", "coverage"}},
		{"fig11", func(b *strings.Builder) error { return s.Figure11(b) },
			[]string{"Figure 11", "hashed"}},
		{"fig12", func(b *strings.Builder) error { return s.Figure12(b) },
			[]string{"Figure 12", "overhead"}},
		{"fig13", func(b *strings.Builder) error { return s.Figure13(b) },
			[]string{"Figure 13", "-SPN", "-FP"}},
		{"sac", func(b *strings.Builder) error { return s.SACReport(b) },
			[]string{"self-adjusting", "routine(s) adjusted"}},
		{"net", func(b *strings.Builder) error { return s.NETReport(b) },
			[]string{"NET", "traces", "avg"}},
		{"static", func(b *strings.Builder) error { return s.StaticReport(b) },
			[]string{"Static instrumentation", "total ops"}},
	}
	for _, c := range cases {
		var sb strings.Builder
		if err := c.run(&sb); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, w := range c.want {
			if !strings.Contains(sb.String(), w) {
				t.Errorf("%s output missing %q:\n%s", c.name, w, sb.String())
			}
		}
	}
}

func TestHeadlineResults(t *testing.T) {
	// The paper's headline claims, checked on the two-workload subset:
	// accuracy of TPP and PPP near-perfect and far above the edge
	// baseline's minimum guarantees; PPP overhead at most TPP's.
	s := stagedSuite(t)
	for _, name := range []string{"mcf", "swim"} {
		wr, err := s.Run(name)
		if err != nil {
			t.Fatal(err)
		}
		_, tppAcc, pppAcc := wr.Accuracy()
		if tppAcc < 0.9 || pppAcc < 0.85 {
			t.Errorf("%s: accuracy TPP=%v PPP=%v below the paper's floor", name, tppAcc, pppAcc)
		}
		edgeCov, tppCov, pppCov := wr.Coverage()
		if tppCov < edgeCov-1e-9 {
			t.Errorf("%s: TPP coverage %v below edge coverage %v", name, tppCov, edgeCov)
		}
		if pppCov <= 0 {
			t.Errorf("%s: PPP coverage %v", name, pppCov)
		}
		pp := wr.Profilers["PP"].Overhead()
		tpp := wr.Profilers["TPP"].Overhead()
		ppp := wr.Profilers["PPP"].Overhead()
		if !(pp >= tpp && tpp >= ppp-1e-9) {
			t.Errorf("%s: overhead ordering broken: PP=%v TPP=%v PPP=%v", name, pp, tpp, ppp)
		}
	}
}

func TestEdgeOverheadPositive(t *testing.T) {
	s := stagedSuite(t)
	wr, err := s.Run("mcf")
	if err != nil {
		t.Fatal(err)
	}
	res, err := wr.Staged.EdgeOverheadRun()
	if err != nil {
		t.Fatal(err)
	}
	if oh := res.Overhead(); oh <= 0 {
		t.Errorf("edge overhead = %v", oh)
	}
}

func TestAblateUnknown(t *testing.T) {
	s := smallSuite(t)
	if _, err := s.Ablate("mcf", "XYZ"); err == nil {
		t.Error("unknown ablation accepted")
	}
	pr, err := s.Ablate("mcf", "FP")
	if err != nil {
		t.Fatal(err)
	}
	if pr.Name != "PPP-FP" {
		t.Errorf("ablation name = %q", pr.Name)
	}
	again, err := s.Ablate("mcf", "FP")
	if err != nil || again != pr {
		t.Error("Ablate did not cache")
	}
}

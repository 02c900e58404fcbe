package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"sort"
	"testing"

	"pathprof/internal/core"
	"pathprof/internal/workloads"
)

func TestTailRuleTenBeyond(t *testing.T) {
	for _, c := range []struct {
		p    float64
		want int
	}{{50, 20}, {70, 34}, {90, 100}, {95, 200}, {99, 1000}} {
		n := minSamples(c.p)
		if n != c.want {
			t.Errorf("minSamples(p%g) = %d, want %d", c.p, n, c.want)
		}
		if !tailOK(n, c.p) || tailOK(n-1, c.p) {
			t.Errorf("p%g: %d samples must be the first with ten beyond", c.p, n)
		}
	}
	l := latency{tailP: 95}
	for i := 0; i < 199; i++ {
		l.add(float64(i))
	}
	if err := l.report(metrics{}, ""); err == nil {
		t.Error("199 samples reported a p95 tail with only 9 beyond it")
	}
	l.add(199)
	m := metrics{}
	if err := l.report(m, ""); err != nil {
		t.Fatal(err)
	}
	if got, want := m["tail_ms"].Value, quantile(l.samples, 95); got != want {
		t.Errorf("tail_ms = %g, want the p95 estimate %g", got, want)
	}
	// Both sides of 99.5 are symmetric, so the estimated median is it.
	if got := m["p50_ms"].Value; math.Abs(got-99.5) > 1e-9 {
		t.Errorf("p50 of 0..199 = %g, want 99.5", got)
	}
}

// TestQuantileHarrellDavis checks the estimator against the Beta
// weights integrated numerically, on clustered samples like suite's.
func TestQuantileHarrellDavis(t *testing.T) {
	if got := quantile([]float64{7}, 50); got != 7 {
		t.Errorf("one sample: %g, want 7", got)
	}
	if got := quantile([]float64{3, 3, 3, 3}, 70); math.Abs(got-3) > 1e-12 {
		t.Errorf("constant samples: %g, want 3", got)
	}
	xs := []float64{400, 60, 1500, 330, 70, 420, 340, 1400, 65, 410, 320, 1600}
	for _, p := range []float64{30, 50, 70} {
		want := hdByIntegration(xs, p)
		if got := quantile(xs, p); math.Abs(got-want) > 1e-6*want {
			t.Errorf("p%g = %.9g, numerical integration gives %.9g", p, got, want)
		}
	}
	// The estimate lies between the two middle samples' clusters, not
	// on either of them.
	if got := quantile(xs, 50); got <= 340 || got >= 400 {
		t.Errorf("p50 = %g, want inside (340, 400)", got)
	}
}

// hdByIntegration computes the Harrell-Davis estimate by Simpson's
// rule over the Beta density, independently of betaInc.
func hdByIntegration(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := float64(len(s))
	a, b := p/100*(n+1), (1-p/100)*(n+1)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	pdf := func(u float64) float64 {
		if u <= 0 || u >= 1 {
			return 0
		}
		return math.Exp(lab - la - lb + (a-1)*math.Log(u) + (b-1)*math.Log1p(-u))
	}
	var sum float64
	for i, x := range s {
		lo, hi := float64(i)/n, float64(i+1)/n
		const steps = 2000
		h := (hi - lo) / steps
		w := pdf(lo) + pdf(hi)
		for k := 1; k < steps; k++ {
			f := 4.0
			if k%2 == 0 {
				f = 2
			}
			w += f * pdf(lo+float64(k)*h)
		}
		sum += w * h / 3 * x
	}
	return sum
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestMetricNameValidation(t *testing.T) {
	for _, ok := range []string{"p50_ms", "serve.ack_e2e_us", "trace.unattributed_frac", "a-b.c_1", "9x"} {
		if !validName(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	for _, bad := range []string{"", "vm/compile.ms", "p50 ms", "_x", ".x", "lat(ms)", "x\n"} {
		if validName(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("set accepted an invalid name")
		}
	}()
	metrics{}.set("vm/compile_ms", "ms", 1)
}

func TestMetricReportedTwicePanics(t *testing.T) {
	m := metrics{}
	m.set("p50_ms", "ms", 1)
	defer func() {
		if recover() == nil {
			t.Error("set accepted a duplicate name")
		}
	}()
	m.set("p50_ms", "ms", 2)
}

func TestOKFracCountsFailures(t *testing.T) {
	var tl tally
	if tl.okFrac() != 0 {
		t.Error("no attempts must not score as all correct")
	}
	for i := 0; i < 8; i++ {
		tl.record(nil)
	}
	tl.record(errors.New("refused"))
	tl.record(errors.New("fingerprint mismatch"))
	if tl.attempted != 10 || tl.failed != 2 || tl.okFrac() != 0.8 {
		t.Errorf("tally = %+v ok_frac %g, want 10 attempted, 2 failed, 0.8", tl, tl.okFrac())
	}
}

func TestReferenceCatchesWrongOutput(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	pr, err := ref.program("gap")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]profOutcome{}
	for k, v := range pr.Profilers {
		got[k] = v
	}
	if err := pr.checkProfilers("gap", got); err != nil {
		t.Fatal(err)
	}
	ppp := got["PPP"]
	ppp.InstrCost++
	got["PPP"] = ppp
	if pr.checkProfilers("gap", got) == nil {
		t.Error("a changed modeled cost passed the reference check")
	}
	if pr.checkPlan("gap", "PPP/spanning", planOutcome{Fingerprint: "0", ProofOK: true}) == nil {
		t.Error("a wrong plan fingerprint passed the reference check")
	}
}

// The suite operation spells Staged.Profile out as its public parts;
// both must give the same profiles, costs and evaluation.
func TestSuiteOpMatchesStagedProfile(t *testing.T) {
	w, _ := workloads.ByName("gap")
	st, out, err := suiteOp(w, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range core.Profilers() {
		pr, err := st.Profile(p.Name, p.Tech)
		if err != nil {
			t.Fatal(err)
		}
		got := out.profilers[p.Name]
		if got.BaseCost != pr.Run.BaseCost || got.InstrCost != pr.Run.InstrCost {
			t.Errorf("%s: costs %d/%d, Staged.Profile %d/%d", p.Name, got.BaseCost, got.InstrCost, pr.Run.BaseCost, pr.Run.InstrCost)
		}
		if p.Name != "PP" && got.Coverage != pr.Eval.Coverage().Value() {
			t.Errorf("%s: coverage %g, Staged.Profile %g", p.Name, got.Coverage, pr.Eval.Coverage().Value())
		}
	}
}

func TestOpListDependsOnSeedOnly(t *testing.T) {
	names := []string{"a", "b", "c", "d"}
	h := func(seed uint64) string { return opListHash(passLines(passes(&rng{s: seed}, names, 8))) }
	if h(7) != h(7) {
		t.Error("the same seed gave different operation lists")
	}
	if h(7) == h(8) {
		t.Error("two seeds gave the same operation list")
	}
	for _, p := range passes(&rng{s: 3}, names, 4) {
		seen := map[string]bool{}
		for _, n := range p {
			seen[n] = true
		}
		if len(seen) != len(names) {
			t.Errorf("pass %v does not hold every program once", p)
		}
	}
}

func TestBenchmarkJSONMatchesReportedMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, code %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit || !validName(want[i].name) {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), code %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if runners[w.Name] == nil {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
}

// Smoke runs: each workload, untraced and traced, on a small input,
// reports its metrics with every operation correct. Runs stop at the
// minimum operation count the tail rule needs.
func TestWorkloadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take about a minute")
	}
	for _, wl := range []string{"suite", "replan", "ingest"} {
		t.Run(wl, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				cfg := config{workload: wl, seed: 5, seconds: 0, trace: traced, programs: []string{"gap", "parser"}}
				m, tl, err := runners[wl](cfg)
				if err != nil {
					t.Fatalf("trace=%v: %v", traced, err)
				}
				if tl.attempted == 0 || tl.failed != 0 {
					t.Fatalf("trace=%v: %d of %d operations failed", traced, tl.failed, tl.attempted)
				}
				if !traced {
					for _, d := range endToEnd {
						if d.name == "peak_rss_mb" || d.name == "ok_frac" {
							continue // added by run
						}
						if v, ok := m[d.name]; !ok || v.Value <= 0 {
							t.Errorf("%s = %v, want a positive value", d.name, v)
						}
					}
					continue
				}
				if u := m["trace.unattributed_frac"].Value; wl != "ingest" && u > 0.05 {
					t.Errorf("%.1f%% of traced time outside layer spans", 100*u)
				}
			}
		})
	}
}

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const goodReport = `{
	"workloads": ["mcf", "swim"],
	"total_seconds": 12.5,
	"headline": {"ppp_overhead_pct": 5.0, "pp_overhead_pct": 30.0}
}`

func runGuard(t *testing.T, args []string, stdin string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, strings.NewReader(stdin), &out, &errb)
	return code, out.String(), errb.String()
}

func writeTemp(t *testing.T, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "report.json")
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestGuardAcceptsHealthyReport(t *testing.T) {
	code, out, errb := runGuard(t, nil, goodReport)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	if !strings.Contains(out, "0 hard failure(s), 0 warning(s)") {
		t.Fatalf("summary missing: %s", out)
	}
}

func TestGuardEnforcesBudget(t *testing.T) {
	code, _, errb := runGuard(t, []string{"-max-secs", "10"}, goodReport)
	if code != 1 || !strings.Contains(errb, "exceeds the 10.0s budget") {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	if code, _, _ := runGuard(t, []string{"-max-secs", "60"}, goodReport); code != 0 {
		t.Fatal("within-budget report rejected")
	}
}

func TestGuardRejectsNonReports(t *testing.T) {
	if code, _, _ := runGuard(t, nil, `{"total_seconds": 0}`); code != 1 {
		t.Fatal("accepted a report with no headline and zero wall clock")
	}
	if code, _, _ := runGuard(t, nil, "not json"); code != 1 {
		t.Fatal("accepted unparseable input")
	}
}

func TestGuardBaselineSoftRegression(t *testing.T) {
	base := writeTemp(t, `{
		"workloads": ["mcf", "swim"],
		"total_seconds": 10.0,
		"headline": {"ppp_overhead_pct": 4.0, "pp_overhead_pct": 40.0}
	}`)
	// 25% slower and ppp overhead up 25%: two warnings, but exit 0
	// without -strict.
	code, out, errb := runGuard(t, []string{"-baseline", base}, goodReport)
	if code != 0 {
		t.Fatalf("soft regression hard-failed: %s", errb)
	}
	if !strings.Contains(errb, "wall clock regressed") || !strings.Contains(errb, `headline "ppp_overhead_pct" regressed`) {
		t.Fatalf("warnings missing: %s", errb)
	}
	if !strings.Contains(out, `headline "pp_overhead_pct" improved`) {
		t.Fatalf("improvement not logged: %s", out)
	}
	// -strict promotes the warnings to a failure.
	if code, _, _ := runGuard(t, []string{"-baseline", base, "-strict"}, goodReport); code != 1 {
		t.Fatal("-strict did not fail on soft findings")
	}
}

func TestGuardMissingBaselineIsInformational(t *testing.T) {
	// Even under -strict: the first run has no baseline to diff.
	code, out, errb := runGuard(t, []string{"-baseline", "/nonexistent/prev.json", "-strict"}, goodReport)
	if code != 0 || !strings.Contains(out, "no usable baseline") {
		t.Fatalf("exit %d, stdout: %s, stderr: %s", code, out, errb)
	}
}

func TestGuardReadsFileArgument(t *testing.T) {
	p := writeTemp(t, goodReport)
	if code, _, errb := runGuard(t, []string{p}, ""); code != 0 {
		t.Fatalf("file argument rejected: %s", errb)
	}
	if code, _, _ := runGuard(t, []string{p, p}, ""); code != 2 {
		t.Fatal("two file arguments accepted")
	}
}

// TestGuardIncomparableBaselineIsInformational diffs a report against
// baselines that ran under another placement or workload set: each is
// "no comparable baseline", naming the differing field, and passes
// even under -strict although its wall clock and headline would
// otherwise be regressions.
func TestGuardIncomparableBaselineIsInformational(t *testing.T) {
	const cur = `{
		"workloads": ["mcf", "swim"], "placement": "spanning",
		"total_seconds": 12.5,
		"headline": {"ppp_overhead_pct": 5.0}
	}`
	for _, tc := range []struct{ name, base, field string }{
		{"placement", `"workloads": ["mcf", "swim"], "placement": "mincost"`, `placement "mincost"`},
		{"workloads", `"workloads": ["mcf"], "placement": "spanning"`, `workloads "mcf"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := writeTemp(t, `{`+tc.base+`, "total_seconds": 5.0, "headline": {"ppp_overhead_pct": 1.0}}`)
			code, out, errb := runGuard(t, []string{"-baseline", base, "-strict"}, cur)
			if code != 0 || errb != "" {
				t.Fatalf("exit %d, stderr: %s", code, errb)
			}
			if !strings.Contains(out, "no comparable baseline: "+tc.field) {
				t.Fatalf("differing field not named: %s", out)
			}
			if strings.Contains(out, "vs baseline") {
				t.Fatalf("wall clock compared across configurations: %s", out)
			}
		})
	}

	// The same configuration is compared, and its regression counts —
	// also against a baseline written while reports still carried
	// "backend": "compiled" (the cached main report the first run after
	// that field's removal diffs against), which must not pass the
	// -strict gate unchecked as "no comparable baseline".
	like := strings.Replace(cur, "12.5", "5.0", 1)
	for _, b := range []string{like, strings.Replace(like, `"placement"`, `"backend": "compiled", "placement"`, 1)} {
		code, out, errb := runGuard(t, []string{"-baseline", writeTemp(t, b), "-strict"}, cur)
		if code != 1 || !strings.Contains(errb, "wall clock regressed") || strings.Contains(out, "no comparable baseline") {
			t.Fatalf("like-for-like regression not flagged against %s: exit %d, stdout: %s, stderr: %s", b, code, out, errb)
		}
	}
}

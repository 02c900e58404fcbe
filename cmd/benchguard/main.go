// Command benchguard gates CI on a pppbench -json report. It enforces
// a hard wall-clock budget (-max-secs) and, given a baseline report
// from an earlier run (-baseline), a soft wall-clock regression check:
// a run more than -tolerance-pct slower than the baseline prints a
// warning (or fails under -strict). Headline-metric drifts beyond the
// tolerance are reported the same way, so a probe-placement or planner
// change that moves measured overhead shows up in the CI log next to
// the timing gate.
//
// Usage:
//
//	pppbench -json > bench.json
//	benchguard -max-secs 300 -baseline prev.json bench.json
//
// Exit status: 0 when every hard gate passes (soft findings are
// warnings), 1 on a hard failure or, with -strict, any finding, 2 on
// usage errors. A missing or unreadable baseline is informational
// either way — the first run after a cache wipe has nothing to
// compare against and must not break the build. So is a baseline
// measured under a different configuration (backend, placement or
// workload set): its wall clock says nothing about this run's.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// benchReport mirrors the fields of pppbench's -json document that the
// guard consumes; unknown fields are ignored so the two tools can
// evolve independently.
type benchReport struct {
	Workloads []string           `json:"workloads"`
	Backend   string             `json:"backend"`
	Placement string             `json:"placement"`
	TotalSecs float64            `json:"total_seconds"`
	Headline  map[string]float64 `json:"headline"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchguard", flag.ContinueOnError)
	fs.SetOutput(stderr)
	maxSecs := fs.Float64("max-secs", 0, "hard wall-clock budget in seconds (0 disables)")
	baseline := fs.String("baseline", "", "baseline pppbench -json report to diff against")
	tolerance := fs.Float64("tolerance-pct", 10, "allowed regression over the baseline, percent")
	strict := fs.Bool("strict", false, "treat soft findings as failures")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 1 {
		fmt.Fprintln(stderr, "benchguard: at most one report argument")
		return 2
	}

	in := stdin
	if fs.NArg() == 1 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			fmt.Fprintf(stderr, "benchguard: %v\n", err)
			return 1
		}
		defer f.Close()
		in = f
	}
	cur, err := readReport(in)
	if err != nil {
		fmt.Fprintf(stderr, "benchguard: report: %v\n", err)
		return 1
	}

	hard, soft := 0, 0
	warn := func(format string, a ...any) {
		soft++
		fmt.Fprintf(stderr, "benchguard: warning: "+format+"\n", a...)
	}
	fail := func(format string, a ...any) {
		hard++
		fmt.Fprintf(stderr, "benchguard: FAIL: "+format+"\n", a...)
	}

	if len(cur.Headline) == 0 {
		fail("report carries no headline metrics (not a pppbench -json document?)")
	}
	if cur.TotalSecs <= 0 {
		fail("report carries no positive total_seconds")
	}
	if *maxSecs > 0 && cur.TotalSecs > *maxSecs {
		fail("wall clock %.1fs exceeds the %.1fs budget", cur.TotalSecs, *maxSecs)
	}

	if *baseline != "" {
		// A missing, unreadable or differently configured baseline is
		// informational, not a finding: the first run after a cache
		// wipe or a configuration change has nothing to compare
		// against and must pass even under -strict.
		f, err := os.Open(*baseline)
		if err != nil {
			fmt.Fprintf(stdout, "benchguard: no usable baseline: %v\n", err)
		} else {
			base, err := readReport(f)
			f.Close()
			if err != nil {
				fmt.Fprintf(stdout, "benchguard: baseline unreadable: %v\n", err)
			} else if diff := configDiff(cur, base); diff != "" {
				fmt.Fprintf(stdout, "benchguard: no comparable baseline: %s\n", diff)
			} else {
				diffBaseline(cur, base, *tolerance, stdout, warn)
			}
		}
	}

	fmt.Fprintf(stdout, "benchguard: %.1fs over %d workload(s), %d hard failure(s), %d warning(s)\n",
		cur.TotalSecs, len(cur.Workloads), hard, soft)
	if hard > 0 || (*strict && soft > 0) {
		return 1
	}
	return 0
}

func readReport(r io.Reader) (*benchReport, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	rep := &benchReport{}
	if err := json.Unmarshal(data, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// configDiff names every run-configuration field in which the report
// and the baseline differ ("" when they match), so wall clock is only
// ever compared like with like.
func configDiff(cur, base *benchReport) string {
	var diffs []string
	field := func(name, b, c string) {
		if b != c {
			diffs = append(diffs, fmt.Sprintf("%s %q in the baseline, %q in the report", name, b, c))
		}
	}
	field("backend", base.Backend, cur.Backend)
	field("placement", base.Placement, cur.Placement)
	field("workloads", strings.Join(base.Workloads, ","), strings.Join(cur.Workloads, ","))
	return strings.Join(diffs, "; ")
}

// diffBaseline reports wall-clock and headline drift beyond the
// tolerance. Headline metrics here are overhead percentages — lower is
// better — so only increases count as regressions; improvements are
// logged for the record.
func diffBaseline(cur, base *benchReport, tolerancePct float64, stdout io.Writer, warn func(string, ...any)) {
	if base.TotalSecs > 0 {
		deltaPct := 100 * (cur.TotalSecs - base.TotalSecs) / base.TotalSecs
		fmt.Fprintf(stdout, "benchguard: wall clock %.1fs vs baseline %.1fs (%+.1f%%)\n",
			cur.TotalSecs, base.TotalSecs, deltaPct)
		if deltaPct > tolerancePct {
			warn("wall clock regressed %.1f%% over baseline (tolerance %.1f%%)", deltaPct, tolerancePct)
		}
	}
	keys := make([]string, 0, len(base.Headline))
	for k := range base.Headline {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b := base.Headline[k]
		c, ok := cur.Headline[k]
		if !ok {
			warn("headline metric %q vanished from the report", k)
			continue
		}
		if b == 0 {
			continue
		}
		deltaPct := 100 * (c - b) / b
		if deltaPct > tolerancePct {
			warn("headline %q regressed: %.2f -> %.2f (%+.1f%%, tolerance %.1f%%)",
				k, b, c, deltaPct, tolerancePct)
		} else if deltaPct < -tolerancePct {
			fmt.Fprintf(stdout, "benchguard: headline %q improved: %.2f -> %.2f (%+.1f%%)\n", k, b, c, deltaPct)
		}
	}
}

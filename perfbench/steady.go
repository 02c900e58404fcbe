package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the steadiness check needs.
type benchSpec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// spread is one metric's ten-run summary.
type spread struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Spread float64 `json:"spread"` // (q3-q1)/median
	Bound  float64 `json:"bound"`
}

// steadiness runs the workload n times, seeds seed..seed+n-1, each in
// its own process, and reports every end-to-end metric's median,
// quartiles and interquartile spread against its bound.
func steadiness(workload string, seed uint64, seconds float64, n int, out string) error {
	specData, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("steadiness runs from the repository root: %w", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(specData, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var runs []result
	values := map[string][]float64{}
	for i := 0; i < n; i++ {
		s := seed + uint64(i)
		cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatUint(s, 10),
			"--seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "--trace", "0")
		var stdout bytes.Buffer
		cmd.Stdout = &stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("run seed %d: %w", s, err)
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("run seed %d: last line: %w", s, err)
		}
		if !res.Correct {
			return fmt.Errorf("run seed %d: incorrect (%d of %d failed)", s, res.Failed, res.Attempted)
		}
		runs = append(runs, res)
		for k, v := range res.Metrics {
			values[k] = append(values[k], v.Value)
		}
		fmt.Fprintf(os.Stderr, "steady %s: run %d/%d (seed %d) done\n", workload, i+1, n, s)
	}
	summary := map[string]spread{}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	bounds := map[string]float64{}
	for _, e := range spec.EndToEnd {
		bounds[e.Name] = e.Bound
	}
	fmt.Printf("%-18s %12s %12s %12s %8s %8s  %s\n", "metric", "median", "q1", "q3", "spread", "bound", "verdict")
	for _, k := range names {
		q1, q2, q3 := quartiles(values[k])
		sp := spread{Median: q2, Q1: q1, Q3: q3, Bound: bounds[k]}
		if q2 != 0 {
			sp.Spread = (q3 - q1) / q2
		}
		summary[k] = sp
		verdict := "ok"
		switch {
		case sp.Spread > sp.Bound:
			verdict = "TOO NOISY"
		case sp.Spread > sp.Bound/3:
			verdict = "over a third of bound"
		}
		fmt.Printf("%-18s %12.5g %12.5g %12.5g %8.4f %8.4f  %s\n", k, q2, q1, q3, sp.Spread, sp.Bound, verdict)
	}
	if out == "" {
		return nil
	}
	data, err := json.MarshalIndent(struct {
		Workload string            `json:"workload"`
		Seconds  float64           `json:"seconds"`
		Seeds    []uint64          `json:"seeds"`
		Spreads  map[string]spread `json:"spreads"`
		Runs     []result          `json:"runs"`
	}{workload, seconds, seedRange(seed, n), summary, runs}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(data, '\n'), 0o644)
}

func seedRange(seed uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = seed + uint64(i)
	}
	return out
}

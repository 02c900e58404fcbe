package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"time"
)

// rng is splitmix64: a fixed, seedable generator, so an operation
// list depends on the seed alone.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// perm returns a seeded permutation of 0..n-1 (Fisher-Yates).
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// passes returns n passes over names, each a seeded permutation, so
// every name occurs equally often in any whole number of passes.
func passes(r *rng, names []string, n int) [][]string {
	out := make([][]string, n)
	for i := range out {
		for _, j := range r.perm(len(names)) {
			out[i] = append(out[i], names[j])
		}
	}
	return out
}

// opListHash hashes an operation list's text form; the same seed
// gives the same bytes and so the same hash.
func opListHash(lines []string) string {
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(sum[:8])
}

// passLines renders passes one operation per line.
func passLines(ps [][]string) []string {
	var lines []string
	for _, p := range ps {
		lines = append(lines, strings.Join(p, " "))
	}
	return lines
}

// passStats is what a pass-driven run measured.
type passStats struct {
	lat     latency   // untraced operation latencies, ms
	traced  []float64 // traced operation latencies, ms
	mallocs []float64 // heap allocations per traced operation
	allocMB []float64 // heap MB allocated per traced operation
	elapsed float64   // seconds spent in untraced passes
	passes  int       // untraced passes
}

// runPasses drives one closed-loop client through whole passes of
// the plan. A new pass starts while the untraced operations are fewer
// than the tail percentile needs or the run time is not used up. In a
// traced run odd passes are traced, so both sides of
// trace.overhead_frac cover the same programs. op runs one operation
// under the tracer it is given, nil when untraced.
func runPasses(cfg config, plan [][]string, tailP float64, tr *tracer, op func(name string, tr *tracer) error) (passStats, tally) {
	ps := passStats{lat: latency{tailP: tailP}}
	var t tally
	minOps := minSamples(tailP)
	t0 := time.Now()
	for pass := 0; pass < len(plan); pass++ {
		if len(ps.lat.samples) >= minOps && msSince(t0)/1000 >= cfg.seconds {
			break
		}
		on := cfg.trace && pass%2 == 1
		passStart := time.Now()
		for i, name := range plan[pass] {
			var opTr *tracer
			var ms0 runtime.MemStats
			if on {
				opTr = tr
				runtime.ReadMemStats(&ms0)
			}
			start := time.Now()
			opTr.beginOp(fmt.Sprintf("p%d.%d.%s", pass, i, name))
			err := op(name, opTr)
			opTr.end()
			d := msSince(start)
			t.record(err)
			if err != nil {
				fmt.Printf("%s: FAIL %v\n", cfg.workload, err)
				continue
			}
			if !on {
				ps.lat.add(d)
				continue
			}
			var ms1 runtime.MemStats
			runtime.ReadMemStats(&ms1)
			ps.traced = append(ps.traced, d)
			ps.mallocs = append(ps.mallocs, float64(ms1.Mallocs-ms0.Mallocs))
			ps.allocMB = append(ps.allocMB, float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
		}
		if !on {
			ps.elapsed += msSince(passStart) / 1000
			ps.passes++
		}
	}
	return ps, t
}

// report sets the end-to-end throughput and latency metrics.
func (ps passStats) report(m metrics) error {
	m.set("ops_per_s", "1/s", float64(len(ps.lat.samples))/ps.elapsed)
	return ps.lat.report(m, "")
}

// traceMetrics sets the tracing overhead and the unattributed share.
func (ps passStats) traceMetrics(m metrics, ops []opLayers) {
	m.set("trace.overhead_frac", "ratio", median(ps.traced)/median(ps.lat.samples)-1)
	m.set("trace.unattributed_frac", "ratio", unattributed(ops))
}

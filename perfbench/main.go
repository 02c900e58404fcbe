// Command perfbench is the repository's benchmark: three seeded,
// closed-loop workloads over the path-profiling pipeline and the
// profile service, each operation checked against a recorded
// reference. See README.md for the workloads and metrics.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	perfbench --workload suite|replan|ingest --seed N --seconds S --trace 0|1
//	perfbench --steady 10 --workload suite --seconds S --steady-out FILE
//	perfbench --record perfbench/reference.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics
// are the end-to-end ones; with --trace 1 the per-layer ones, from
// spans recorded around each call into a layer and written to
// .bench_build/trace/ when the run ends.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// buildDir is where a run writes inside the checkout: the ingest
// store directories and the trace files.
const buildDir = ".bench_build"

// How often a run sets up; setup_s is the median. Staging 18
// programs (replan) takes about 4 s, so three; ingest's set-up takes
// about 1.5 s and suite's a quarter of a second, and the shorter a
// set-up the more one repetition varies, so five and nine.
const (
	replanSetupReps = 3
	ingestSetupReps = 5
	suiteSetupReps  = 9
)

// maxPasses bounds the generated operation list of the pass-based
// workloads; runs stop long before it.
const maxPasses = 512

// config is one run's parameters.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// programs restricts suite and replan to a subset (tests); nil
	// means all 18.
	programs []string
}

var runners = map[string]func(config) (metrics, tally, error){
	"suite":  runSuite,
	"replan": runReplan,
	"ingest": runIngest,
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "workload: suite, replan or ingest")
	seed := flag.Uint64("seed", 1, "seed for the operation list and generated inputs")
	seconds := flag.Float64("seconds", 10, "how long one run measures")
	trace := flag.Int("trace", 0, "1 runs traced and reports per-layer metrics")
	steady := flag.Int("steady", 0, "run the workload this many times (seeds seed..seed+N-1) and report each end-to-end metric's spread")
	steadyOut := flag.String("steady-out", "", "with --steady: also write the runs and spreads as JSON to this file")
	recordTo := flag.String("record", "", "record the reference outputs to this file and exit")
	flag.Parse()

	fail := func(format string, a ...any) int {
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", a...)
		return 1
	}
	if *recordTo != "" {
		if err := record(*recordTo); err != nil {
			return fail("record: %v", err)
		}
		return 0
	}
	runner, ok := runners[*workload]
	if !ok {
		return fail("unknown workload %q (want suite, replan or ingest)", *workload)
	}
	if *trace != 0 && *trace != 1 {
		return fail("--trace must be 0 or 1")
	}
	if *steady > 0 {
		if err := steadiness(*workload, *seed, *seconds, *steady, *steadyOut); err != nil {
			return fail("%v", err)
		}
		return 0
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1}
	m, t, err := runner(cfg)
	if err != nil {
		return fail("%s: %v", *workload, err)
	}
	if cfg.trace {
		// A layer this workload never calls spent no time in it.
		for _, d := range perLayer {
			if _, ok := m[d.name]; !ok {
				m.set(d.name, d.unit, 0)
			}
		}
	} else {
		rss, err := peakRSSMB()
		if err != nil {
			return fail("%v", err)
		}
		m.set("peak_rss_mb", "MB", rss)
		m.set("ok_frac", "ratio", t.okFrac())
	}
	res := result{Correct: t.failed == 0 && t.attempted > 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}
	line, err := json.Marshal(res)
	if err != nil {
		return fail("%v", err)
	}
	fmt.Println(string(line))
	return 0
}

// timeSetup runs setup reps times and returns the median wall time in
// seconds. Every repetition but the last is torn down with the cleanup
// it returns; the last one's state is what the run uses.
func timeSetup(reps int, setup func() (cleanup func(), err error)) (float64, error) {
	var secs []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		cleanup, err := setup()
		if err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		secs = append(secs, time.Since(start).Seconds())
		fmt.Printf("set-up %d: %.3f s\n", i+1, secs[i])
		if i < reps-1 {
			cleanup()
		}
	}
	return median(secs), nil
}

func writeTrace(cfg config, tracers ...*tracer) error {
	path, err := writeSpans(cfg.workload, cfg.seed, tracers...)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("%s: spans written to %s\n", cfg.workload, path)
	return nil
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

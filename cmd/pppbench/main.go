// Command pppbench regenerates the paper's tables and figures over
// the synthetic SPEC2000-shaped workload suite.
//
// Usage:
//
//	pppbench [-exp all|table1|table2|fig9|fig10|fig11|fig12|fig13|sac|net|static|throughput|faults|backend|placement]
//	         [-backend compiled|dense] [-placement spanning|mincost] [-workloads a,b,c]
//	         [-par n] [-replicas n] [-faults spec] [-json] [-v] [-cpuprofile f] [-memprofile f]
//
// The workload sweep runs on a bounded worker pool (-par, default
// GOMAXPROCS); table and figure output is deterministic regardless of
// parallelism. With -json, the human-readable tables are suppressed
// and one JSON document with per-experiment wall-clock times and the
// suite's headline metrics is written to stdout instead.
//
// -exp throughput measures sharded concurrent collection
// (vm.RunReplicated) at 1/2/4/8 workers with -replicas runs per
// measurement; because its numbers are wall-clock, it only runs when
// requested explicitly, never under -exp all. -cpuprofile/-memprofile
// write go tool pprof profiles, for diagnosing scaling regressions in
// the collector.
//
// -exp faults runs guarded replication under deterministic fault
// injection (-faults seed=N,kind=panic+stall+overflow[,rate=r]) and
// reports shard quarantine, lost flow, counter saturation, and merge
// determinism across worker counts and both VM backends. Also
// explicit-only: its outcome depends on the requested fault spec.
//
// -backend selects the VM execution strategy for the pipeline runs:
// "compiled" (threaded code, default) or "dense" (the reference
// interpreter); every table and figure is identical under either.
// Each compiled engine built under the decision trace (-exp faults
// with -trace) logs one validate event per routine. -exp backend runs
// the cross-backend smoke: the workload sweep PP-instrumented on both
// backends at 1 and 8 workers, diffing merged fingerprints (a
// divergence is a hard failure) and reporting wall clock, speedup, and
// per-routine compile cost. With -json, the comparison lands in the
// report's backend_comparison field.
//
// -placement selects the edge-probe placement the suite's pipelines
// plan under: "spanning" (a counter per CFG transition, default) or
// "mincost" (probes only on the cotree chords of a max-cost spanning
// tree, remaining counts recovered by flow conservation); every table
// and figure is identical under either. -exp placement runs the
// spanning-vs-mincost head-to-head: per-workload probe-site counts and
// modeled overhead for PP/TPP/PPP under both placements, plus the
// recovery bit-identity check at 1/2/4/8 workers on both backends (a
// fingerprint divergence is a hard failure). With -json, the
// comparison lands in the report's placement_comparison field.
//
// Observability: -serve :addr exposes the suite's live telemetry over
// HTTP (/metrics Prometheus text, /debug/vars, /debug/pprof, trace
// exports) and keeps serving after the experiments finish, until
// interrupted. -trace f writes the planner decision trace on exit —
// JSON lines when f ends in .jsonl (byte-identical across identical
// runs), Chrome trace_event JSON otherwise.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"pathprof/internal/bench"
	"pathprof/internal/instr"
	srv "pathprof/internal/serve"
	"pathprof/internal/telemetry"
	"pathprof/internal/vm"
	"pathprof/internal/workloads"
)

// report is the -json output document.
type report struct {
	Workloads   []string           `json:"workloads"`
	Parallelism int                `json:"parallelism"`
	Backend     string             `json:"backend"`
	Placement   string             `json:"placement"`
	Experiments []experimentTiming `json:"experiments"`
	TotalSecs   float64            `json:"total_seconds"`
	Headline    map[string]float64 `json:"headline"`
	// StaticOps lists per-routine, per-profiler static instrumentation
	// (path-profiling ops and edge probe sites) under the selected
	// placement.
	StaticOps []bench.StaticOpsRow `json:"static_ops,omitempty"`
	// Backends holds the dense-vs-compiled comparison (wall clock,
	// speedup, per-routine compile stats) when -exp backend ran.
	Backends *bench.BackendReport `json:"backend_comparison,omitempty"`
	// Placements holds the spanning-vs-mincost probe-placement
	// head-to-head when -exp placement ran.
	Placements *bench.PlacementReport `json:"placement_comparison,omitempty"`
}

type experimentTiming struct {
	Name string  `json:"name"`
	Secs float64 `json:"seconds"`
}

func main() { os.Exit(run()) }

func run() int {
	exp := flag.String("exp", "all", "experiment to regenerate (all, table1, table2, fig9, fig10, fig11, fig12, fig13, sac, net, static, throughput, faults, backend, placement)")
	backendName := flag.String("backend", "compiled", "VM execution backend for pipeline runs (compiled, or dense for the reference interpreter)")
	placementName := flag.String("placement", "spanning", "edge-probe placement for pipeline runs (spanning, mincost)")
	names := flag.String("workloads", "", "comma-separated subset of workloads (default: all 18)")
	par := flag.Int("par", 0, "worker pool size for the workload sweep (0 = GOMAXPROCS, 1 = sequential)")
	replicas := flag.Int("replicas", bench.DefaultThroughputReplicas, "replicas per measurement in -exp throughput/faults")
	faults := flag.String("faults", "seed=1,kind=panic+overflow", "fault spec for -exp faults: seed=N,kind=a+b[,rate=r]")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON (wall-clock + headline metrics) instead of tables")
	serve := flag.String("serve", "", "serve live telemetry (/metrics, /debug/vars, /debug/pprof, trace exports) on this address and block after the experiments")
	traceOut := flag.String("trace", "", "write the decision trace to this file on exit (.jsonl = JSON lines, else Chrome trace_event JSON)")
	verbose := flag.Bool("v", false, "log progress to stderr")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	backend, err := vm.ParseBackend(*backendName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		return 2
	}
	placement, err := instr.ParsePlacement(*placementName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		return 2
	}
	s := bench.NewSuite()
	s.Parallelism = *par
	s.Backend = backend
	s.Placement = placement
	if *verbose {
		s.Log = os.Stderr
	}
	var telemetrySrv *srv.Graceful
	var telemetryErr <-chan error
	if *serve != "" {
		ln, err := net.Listen("tcp", *serve)
		if err != nil {
			fmt.Fprintf(os.Stderr, "serve: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "telemetry on http://%s/\n", ln.Addr())
		telemetrySrv = &srv.Graceful{Handler: s.Telemetry.Handler(), Log: os.Stderr}
		telemetryErr = telemetrySrv.Start(ln)
	}
	if *names != "" {
		var sel []workloads.Workload
		for _, n := range strings.Split(*names, ",") {
			w, ok := workloads.ByName(strings.TrimSpace(n))
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown workload %q; available: %s\n",
					n, strings.Join(workloads.Names(), ", "))
				return 2
			}
			sel = append(sel, w)
		}
		s.Workloads = sel
	}

	type experiment struct {
		name string
		run  func(io.Writer) error
		// onlyExplicit excludes wall-clock experiments from -exp all so
		// the default output stays deterministic.
		onlyExplicit bool
	}
	all := []experiment{
		{"table1", s.Table1, false},
		{"table2", s.Table2, false},
		{"fig9", s.Figure9, false},
		{"fig10", s.Figure10, false},
		{"fig11", s.Figure11, false},
		{"fig12", s.Figure12, false},
		{"fig13", s.Figure13, false},
		{"sac", s.SACReport, false},
		{"net", s.NETReport, false},
		{"static", s.StaticReport, false},
		{"throughput", func(w io.Writer) error { return s.ThroughputReport(w, *replicas) }, true},
		{"faults", func(w io.Writer) error { return s.FaultsReport(w, *faults, *replicas) }, true},
		// run functions filled in below; they need access to rep.
		{"backend", nil, true},
		{"placement", nil, true},
	}
	rep := report{Parallelism: s.Parallelism, Backend: backend.String(), Placement: placement.String()}
	all[len(all)-2].run = func(w io.Writer) error {
		br, err := s.BackendSmoke(w, *replicas)
		rep.Backends = br
		return err
	}
	all[len(all)-1].run = func(w io.Writer) error {
		pr, err := s.PlacementTable(w, *replicas)
		rep.Placements = pr
		return err
	}
	for _, w := range s.Workloads {
		rep.Workloads = append(rep.Workloads, w.Name)
	}
	out := io.Writer(os.Stdout)
	if *jsonOut {
		out = io.Discard
	}
	start := time.Now()
	ran := false
	for _, e := range all {
		if *exp == "all" {
			if e.onlyExplicit {
				continue
			}
		} else if *exp != e.name {
			continue
		}
		ran = true
		t0 := time.Now()
		if err := e.run(out); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			return 1
		}
		rep.Experiments = append(rep.Experiments, experimentTiming{e.name, time.Since(t0).Seconds()})
		if !*jsonOut {
			fmt.Println()
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		return 2
	}
	rep.TotalSecs = time.Since(start).Seconds()

	if *jsonOut {
		headline, err := s.Headline()
		if err != nil {
			fmt.Fprintf(os.Stderr, "headline: %v\n", err)
			return 1
		}
		rep.Headline = headline
		rep.StaticOps, err = s.StaticOpsRows()
		if err != nil {
			fmt.Fprintf(os.Stderr, "static ops: %v\n", err)
			return 1
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(os.Stderr, "json: %v\n", err)
			return 1
		}
	}
	if *traceOut != "" {
		if err := writeTrace(s.Telemetry.Trace(), *traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			return 1
		}
	}
	if *serve != "" {
		fmt.Fprintf(os.Stderr, "experiments done; serving telemetry until SIGINT/SIGTERM\n")
		ctx, stop := srv.SignalContext()
		defer stop()
		if err := telemetrySrv.Wait(ctx, telemetryErr); err != nil {
			fmt.Fprintf(os.Stderr, "serve: %v\n", err)
			return 1
		}
	}
	return 0
}

// writeTrace exports the decision trace: JSON lines for .jsonl paths,
// Chrome trace_event JSON otherwise.
func writeTrace(tr *telemetry.Trace, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".jsonl") {
		err = tr.WriteJSONL(f)
	} else {
		err = tr.WriteChrome(f)
	}
	if err != nil {
		return err
	}
	return f.Close()
}

// Command pppc compiles a mini-C program (a file or a named built-in
// workload), runs the staged-optimization pipeline, instruments it
// with a chosen path profiler, executes it, and reports the measured
// hot paths, accuracy, coverage, and runtime overhead.
//
// Usage:
//
//	pppc -workload mcf -profiler PPP
//	pppc -src prog.mc -profiler TPP -hot 10
//	pppc -src prog.mc -profiler PPP -dump-plans
//	pppc -workload mcf -profiler PPP -placement mincost
//	pppc -workload mcf -snapshot mcf.ppsnap
//	pppc -workload mcf -save-profile mcf.guide.ppsnap
//	pppc -workload mcf -load-profile mcf.guide.ppsnap
//	pppc -workload mcf -faults seed=7,kind=panic+overflow
//	pppc -workload mcf -trace trace.jsonl -serve :8080
//
// Every run executes compiled threaded code, translation-validated
// per routine before it runs; a traced -faults drill carries one
// validate event per routine.
//
// A guide is a PPSNAP snapshot that carries edge profiles:
// -save-profile writes the staged run's edge profiles as one, and
// -load-profile plans from one instead of the run's own, such as a
// profile service aggregate (GET /v1/profiles/{tenant}). A snapshot
// without edge profiles, like -snapshot output, is refused.
//
// Every instrumentation plan the run builds is proven against the
// paper's invariants over all acyclic paths (package verify): a
// violation prints its diagnostics and exits nonzero, and success
// prints one verdict line.
//
// -trace writes the planner decision trace on exit (JSON lines when
// the path ends in .jsonl, Chrome trace_event JSON otherwise); -serve
// exposes live telemetry (/metrics, /debug/vars, /debug/pprof, trace
// exports) and blocks after the run until interrupted.
//
// Malformed or hostile input — unparsable source, truncated files,
// corrupt profiles or snapshots — produces a diagnostic on stderr and
// a nonzero exit, never a panic.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"strings"

	"pathprof/internal/bench"
	"pathprof/internal/core"
	"pathprof/internal/eval"
	"pathprof/internal/faultinject"
	"pathprof/internal/instr"
	"pathprof/internal/profile"
	srv "pathprof/internal/serve"
	"pathprof/internal/snapshot"
	"pathprof/internal/telemetry"
	"pathprof/internal/verify"
	"pathprof/internal/vm"
	"pathprof/internal/workloads"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its environment abstracted, so hostile-input
// behavior (diagnostic + nonzero exit, never a panic) is testable
// in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pppc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	src := fs.String("src", "", "mini-C source file to profile")
	workload := fs.String("workload", "", "built-in workload name instead of -src")
	profiler := fs.String("profiler", "PPP", "profiler: PP, TPP, PPP, or PPP-{SAC,FP,Push,SPN,LC}")
	hot := fs.Int("hot", 10, "number of hot paths to print")
	noOpt := fs.Bool("no-opt", false, "skip profile-guided inlining and unrolling")
	placementName := fs.String("placement", "spanning", "edge-probe placement (spanning, mincost)")
	dumpPlans := fs.Bool("dump-plans", false, "dump per-routine instrumentation plans")
	saveProfile := fs.String("save-profile", "", "write the optimized run's edge profile to a file as a PPSNAP guide")
	loadProfile := fs.String("load-profile", "", "guide instrumentation with the edge profiles of this PPSNAP snapshot instead of the run's own")
	snapPath := fs.String("snapshot", "", "durable profile snapshot path: load (with .prev fallback) before the run, save after")
	faults := fs.String("faults", "", "deterministic fault injection spec: seed=N,kind=panic+stall+overflow+snapcorrupt+badcfg[,rate=r]")
	dumpIR := fs.Bool("dump-ir", false, "dump the optimized IR")
	serve := fs.String("serve", "", "serve live telemetry (/metrics, /debug/vars, /debug/pprof, trace exports) on this address and block on exit")
	traceOut := fs.String("trace", "", "write the planner decision trace to this file (.jsonl = JSON lines, else Chrome trace_event JSON)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, a ...interface{}) int {
		fmt.Fprintf(stderr, "pppc: "+format+"\n", a...)
		return 1
	}

	var inj *faultinject.Injector
	if *faults != "" {
		var err error
		if inj, err = faultinject.Parse(*faults); err != nil {
			return fail("%v", err)
		}
	}

	var name, source string
	switch {
	case *workload != "":
		w, ok := workloads.ByName(*workload)
		if !ok {
			return fail("unknown workload %q", *workload)
		}
		name, source = w.Name, w.Source
	case *src != "":
		data, err := os.ReadFile(*src)
		if err != nil {
			return fail("%v", err)
		}
		name, source = *src, string(data)
	default:
		return fail("need -src or -workload (try -workload mcf)")
	}

	tech, ok := techFor(*profiler)
	if !ok {
		return fail("unknown profiler %q", *profiler)
	}

	// A guide is read before anything runs, so one that is not a guide
	// is refused without staging the program.
	var loaded map[string]*profile.EdgeProfile
	if *loadProfile != "" {
		data, err := os.ReadFile(*loadProfile)
		if err != nil {
			return fail("%v", err)
		}
		if loaded, err = decodeGuide(data); err != nil {
			return fail("load profile %s: %v", *loadProfile, err)
		}
	}

	// A pre-existing snapshot is consulted before the run: corruption
	// is a warning (the store falls back to .prev when it can), not a
	// reason to refuse fresh profiling.
	var store *snapshot.Store
	if *snapPath != "" {
		store = snapshot.NewStore(*snapPath)
		prev, fellBack, err := store.Load()
		switch {
		case err == nil && fellBack:
			fmt.Fprintf(stderr, "pppc: snapshot %s corrupt; recovered previous snapshot %016x from %s\n",
				store.Path(), prev.Fingerprint(), store.PrevPath())
		case err == nil:
			fmt.Fprintf(stdout, "previous snapshot %016x loaded from %s\n", prev.Fingerprint(), store.Path())
		case errors.Is(err, os.ErrNotExist):
			// First run: nothing to load.
		default:
			fmt.Fprintf(stderr, "pppc: snapshot %s unusable (no fallback): %v\n", store.Path(), err)
		}
	}

	// Telemetry is only constructed when an exposition flag asks for
	// it; otherwise the nil registry keeps every emission site on its
	// no-op fast path.
	var reg *telemetry.Registry
	if *serve != "" || *traceOut != "" {
		reg = telemetry.NewRegistry(1)
	}
	var telemetrySrv *srv.Graceful
	var telemetryErr <-chan error
	if *serve != "" {
		ln, err := net.Listen("tcp", *serve)
		if err != nil {
			return fail("serve: %v", err)
		}
		fmt.Fprintf(stderr, "telemetry on http://%s/\n", ln.Addr())
		telemetrySrv = &srv.Graceful{Handler: reg.Handler(), Log: stderr}
		telemetryErr = telemetrySrv.Start(ln)
	}

	placement, err := instr.ParsePlacement(*placementName)
	if err != nil {
		return fail("%v", err)
	}

	pipe := core.NewPipeline(name, source)
	pipe.NoOpt = *noOpt
	pipe.Instr.Placement = placement
	pipe.Instr.Trace = reg.Trace()
	pipe.Metrics = telemetry.NewVMMetrics(reg)
	staged, err := pipe.Stage()
	if err != nil {
		return fail("stage: %v", err)
	}
	if *dumpIR {
		fmt.Fprint(stdout, staged.Prog.Dump())
	}

	stats := core.StatsOf(staged.Base)
	fmt.Fprintf(stdout, "%s: %d dynamic paths, %.2f branches/path, %.2f instrs/path\n",
		name, stats.DynPaths, stats.AvgBranches, stats.AvgInstrs)
	if !*noOpt {
		fmt.Fprintf(stdout, "inlining: %.0f%% of dynamic calls removed; unrolling avg factor applied; speedup %.2fx\n",
			100*staged.PctCallsInlined(), staged.Speedup())
	}

	if *saveProfile != "" {
		if err := os.WriteFile(*saveProfile, encodeGuide(staged), 0o644); err != nil {
			return fail("save profile: %v", err)
		}
		fmt.Fprintf(stdout, "edge profile saved to %s\n", *saveProfile)
	}
	guide := staged.Base.Edges
	if loaded != nil {
		guide = loaded
		fmt.Fprintf(stdout, "guiding instrumentation with %s\n", *loadProfile)
	}

	pr, err := staged.ProfileWith(*profiler, tech, guide)
	if err != nil {
		return fail("profile: %v", err)
	}
	diags, ok := verify.CheckAll(pr.Plans, verify.Options{Trace: reg.Trace(), TraceUnit: name + "/verify"})
	if !ok {
		for _, d := range diags {
			fmt.Fprintln(stderr, d)
		}
		return fail("verify: %d invariant violation(s) in %s plans", len(diags), *profiler)
	}
	fmt.Fprintf(stdout, "verify: %d routine plan(s) proven\n", len(pr.Plans))
	if *dumpPlans {
		names := make([]string, 0, len(pr.Plans))
		for n := range pr.Plans {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprint(stdout, pr.Plans[n].Dump())
		}
	}

	fmt.Fprintf(stdout, "%s overhead: %.1f%% (base cost %d, instrumentation cost %d)\n",
		*profiler, 100*pr.Overhead(), pr.Run.BaseCost, pr.Run.InstrCost)

	hotPaths := pr.Eval.HotPaths(bench.HotTheta)
	est := pr.Eval.EstimatedProfile(bench.HotTheta)
	fmt.Fprintf(stdout, "accuracy %.1f%%, coverage %.1f%% (edge profile alone: %.1f%%)\n",
		100*eval.Accuracy(hotPaths, est), 100*pr.Eval.Coverage().Value(),
		100*pr.Eval.EdgeCoverage().Value())
	if pr.SACAdjusted > 0 {
		fmt.Fprintf(stdout, "self-adjusting criterion: %d routine(s), max %d iteration(s)\n",
			pr.SACAdjusted, pr.MaxSACIterations)
	}
	if pr.Degraded() > 0 {
		fmt.Fprintf(stdout, "degraded mode: %s\n", pr.ModeSummary())
	}

	if store != nil {
		snap := pr.Run.Snapshot()
		if err := store.Save(snap); err != nil {
			return fail("save snapshot: %v", err)
		}
		fmt.Fprintf(stdout, "snapshot %016x saved to %s\n", snap.Fingerprint(), store.Path())
	}

	if inj != nil {
		if err := faultDrill(stdout, inj, staged, pr, reg.Trace(), name+"/faults"); err != nil {
			return fail("faults: %v", err)
		}
	}

	fmt.Fprintf(stdout, "\nhottest %d paths (of %d hot at %.3f%% of flow):\n",
		min(*hot, len(hotPaths)), len(hotPaths), 100*bench.HotTheta)
	for i, h := range hotPaths {
		if i >= *hot {
			break
		}
		fmt.Fprintf(stdout, "  %8d x  %s | %s\n", h.Freq, h.Routine, h.Path)
	}

	if *traceOut != "" {
		if err := writeTrace(reg.Trace(), *traceOut); err != nil {
			return fail("trace: %v", err)
		}
		fmt.Fprintf(stdout, "decision trace (%d events) written to %s\n", reg.Trace().Len(), *traceOut)
	}
	if *serve != "" {
		fmt.Fprintf(stderr, "pppc: done; serving telemetry until SIGINT/SIGTERM\n")
		ctx, stop := srv.SignalContext()
		defer stop()
		if err := telemetrySrv.Wait(ctx, telemetryErr); err != nil {
			return fail("serve: %v", err)
		}
	}
	return 0
}

// encodeGuide is what -save-profile writes: the staged base run's edge
// profiles as a PPSNAP snapshot.
func encodeGuide(staged *core.Staged) []byte {
	return snapshot.Encode(&profile.Snapshot{Edges: staged.Base.Edges})
}

// decodeGuide is how -load-profile reads a guide: a PPSNAP snapshot,
// CRC-checked, whose edge profiles guide planning. It may be pppc's own
// -save-profile output or a profile service aggregate (the body of
// GET /v1/profiles/{tenant}). A snapshot with no edge profile is no
// guide (core.Guide) and is refused.
func decodeGuide(data []byte) (map[string]*profile.EdgeProfile, error) {
	snap, err := snapshot.Decode(data)
	if err != nil {
		return nil, err
	}
	guide := core.Guide(snap)
	if guide == nil {
		return nil, errors.New("snapshot carries no edge profile, so it cannot guide planning (a path-instrumented run's snapshot, such as -snapshot output, has none)")
	}
	return guide, nil
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

// faultDrill exercises the robustness machinery against the staged
// program under the parsed injector and reports what degraded and how.
// Every fault kind must complete with a structured report — an error
// return here means the guardrails themselves are broken.
func faultDrill(w io.Writer, inj *faultinject.Injector, staged *core.Staged, pr *core.ProfilerResult, tr *telemetry.Trace, unit string) error {
	fmt.Fprintf(w, "\nfault drill: %s\n", inj)

	// panic/stall/overflow drive guarded replication.
	if inj.Active(faultinject.Panic) || inj.Active(faultinject.Stall) || inj.Active(faultinject.Overflow) {
		entry := staged.Pipeline.Entry
		if entry == "" {
			entry = "main"
		}
		opts := vm.Options{
			Costs: staged.Pipeline.Costs, Entry: staged.Pipeline.Entry,
			MaxSteps:     staged.Pipeline.MaxSteps,
			CollectEdges: true, CollectPaths: true,
			Guard: bench.FaultGuard(inj, []string{entry}, tr, unit),
			Trace: tr, TraceUnit: unit,
		}
		rr, err := vm.RunReplicated(staged.Prog, opts, 8, 4)
		if err != nil {
			fmt.Fprintf(w, "  guarded run: %v\n", err)
		} else {
			fmt.Fprintf(w, "  guarded run: %d/%d replicas survived, merged fingerprint %016x\n",
				rr.Survivors(), rr.Replicas, rr.Merged.Fingerprint())
			for _, f := range rr.Faults {
				fmt.Fprintf(w, "  - %v\n", f)
			}
			if sat := rr.Merged.SaturatedRoutines(); len(sat) > 0 {
				fmt.Fprintf(w, "  saturated counters (edge-only fallback): %v\n", sat)
			}
		}
	}

	// snapcorrupt damages an encoded snapshot; the decoder must reject
	// it with a structured error, never crash or accept it.
	if inj.Active(faultinject.SnapCorrupt) {
		data := snapshot.Encode(pr.Run.Snapshot())
		bad := inj.Corrupt(data, 1)
		if _, err := snapshot.Decode(bad); err != nil {
			fmt.Fprintf(w, "  snapcorrupt: decoder rejected damaged snapshot: %v\n", err)
		} else {
			return fmt.Errorf("snapcorrupt: damaged snapshot was accepted")
		}
	}

	// badcfg truncates the source mid-token; the pipeline must answer
	// with a diagnostic, not a panic.
	if inj.Active(faultinject.BadCFG) {
		src := staged.Pipeline.Source
		cut := 1 + int(inj.Rand(faultinject.BadCFG, 0)%uint64(len(src)-1))
		if _, err := core.NewPipeline("badcfg", src[:cut]).Stage(); err != nil {
			fmt.Fprintf(w, "  badcfg: truncated source rejected: %v\n", err)
		} else {
			fmt.Fprintf(w, "  badcfg: source truncated at %d/%d still staged cleanly\n", cut, len(src))
		}
	}
	return nil
}

func techFor(name string) (instr.Techniques, bool) {
	switch name {
	case "PP":
		return instr.PP(), true
	case "TPP":
		return instr.TPP(), true
	case "PPP":
		return instr.PPP(), true
	}
	for ab, tech := range core.Ablations() {
		if name == "PPP-"+ab {
			return tech, true
		}
	}
	return instr.Techniques{}, false
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

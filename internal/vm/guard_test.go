package vm_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"pathprof/internal/cfg"
	"pathprof/internal/faultinject"
	"pathprof/internal/lower"
	"pathprof/internal/profile"
	"pathprof/internal/vm"
)

func runReplicated(t *testing.T, opts vm.Options, n, par int) *vm.ReplicatedResult {
	t.Helper()
	prog := compile(t, loopSrc, lower.Options{})
	rr, err := vm.RunReplicated(prog, opts, n, par)
	if err != nil {
		t.Fatalf("RunReplicated: %v", err)
	}
	return rr
}

// TestGuardZeroFaultBitIdentical checks that merely enabling guarded
// mode (no faults injected) changes nothing: same merged fingerprint,
// no quarantines.
func TestGuardZeroFaultBitIdentical(t *testing.T) {
	forEachBackend(t, func(t *testing.T, be vm.Backend) {
		opts := vm.Options{CollectEdges: true, CollectPaths: true, Backend: be}
		plain := runReplicated(t, opts, 12, 4)

		opts.Guard = &vm.GuardConfig{ReplicaRetries: 2, ReplicaDeadline: time.Minute}
		guarded := runReplicated(t, opts, 12, 4)

		if len(guarded.Faults) != 0 || guarded.LostReplicas != 0 {
			t.Fatalf("clean guarded run reported faults: %v", guarded.Faults)
		}
		if plain.Merged.Fingerprint() != guarded.Merged.Fingerprint() {
			t.Error("guarded zero-fault snapshot differs from unguarded")
		}
		if guarded.Ret != plain.Ret || guarded.Survivors() != 12 {
			t.Errorf("ret=%d survivors=%d, want %d/12", guarded.Ret, guarded.Survivors(), plain.Ret)
		}
	})
}

// TestGuardCleanFaultRetries injects a hook error on the first attempt
// of every replica; with a retry budget the run must succeed with no
// quarantine and a bit-identical snapshot.
func TestGuardCleanFaultRetries(t *testing.T) {
	forEachBackend(t, func(t *testing.T, be vm.Backend) {
		opts := vm.Options{CollectEdges: true, CollectPaths: true, Backend: be}
		want := runReplicated(t, opts, 8, 4).Merged.Fingerprint()

		opts.Guard = &vm.GuardConfig{
			ReplicaRetries: 1,
			FaultHook: func(ctx vm.FaultContext) error {
				if ctx.Attempt == 0 {
					return fmt.Errorf("injected pre-run fault")
				}
				return nil
			},
		}
		rr := runReplicated(t, opts, 8, 4)
		if len(rr.Faults) != 0 {
			t.Fatalf("retryable faults quarantined: %v", rr.Faults)
		}
		if rr.Merged.Fingerprint() != want {
			t.Error("retried run snapshot differs from clean run")
		}
	})
}

// TestGuardExhaustedRetriesQuarantines exhausts the retry budget on
// selected workers and checks the quarantine: the merged snapshot must
// equal a run that only ever executed the surviving replicas, and the
// lost-flow accounting must cover the dead shards' whole blocks.
func TestGuardExhaustedRetriesQuarantines(t *testing.T) {
	forEachBackend(t, func(t *testing.T, be vm.Backend) {
		opts := vm.Options{CollectEdges: true, CollectPaths: true, Backend: be}
		// 8 replicas over 4 workers: blocks of 2. Workers 1 and 2 die,
		// so 4 replicas survive; identical replicas make the expected
		// merge equal to a clean 4-replica run.
		want := runReplicated(t, opts, 4, 2).Merged.Fingerprint()

		dead := map[int]bool{1: true, 2: true}
		opts.Guard = &vm.GuardConfig{
			ReplicaRetries: 2,
			FaultHook: func(ctx vm.FaultContext) error {
				if dead[ctx.Worker] {
					return fmt.Errorf("injected persistent fault on worker %d", ctx.Worker)
				}
				return nil
			},
		}
		rr := runReplicated(t, opts, 8, 4)
		if len(rr.Faults) != 2 || rr.LostReplicas != 4 || rr.Survivors() != 4 {
			t.Fatalf("faults=%v lost=%d, want 2 faults / 4 lost", rr.Faults, rr.LostReplicas)
		}
		for _, f := range rr.Faults {
			if !dead[f.Worker] || f.Tainted || f.Attempts != 3 || f.Lost != 2 {
				t.Errorf("unexpected fault shape: %+v", f)
			}
			if !strings.Contains(f.String(), "clean quarantine") {
				t.Errorf("fault string %q", f.String())
			}
		}
		if rr.Merged.Fingerprint() != want {
			t.Error("quarantined merge differs from a clean run of the survivors")
		}
	})
}

// TestGuardPanicInRunTaintsShard panics inside the run (via the path
// hook) on one worker: the shard must be quarantined as tainted and
// the rest of the run survive.
func TestGuardPanicInRunTaintsShard(t *testing.T) {
	forEachBackend(t, func(t *testing.T, be vm.Backend) {
		opts := vm.Options{
			CollectEdges: true, CollectPaths: true, Backend: be,
			PathHookFor: func(w int) func(fn string, p cfg.Path) {
				if w != 1 {
					return nil
				}
				return func(fn string, p cfg.Path) {
					panic("injected mid-run panic")
				}
			},
			Guard: &vm.GuardConfig{ReplicaRetries: 3},
		}
		rr := runReplicated(t, opts, 8, 4)
		if len(rr.Faults) != 1 {
			t.Fatalf("faults = %v, want exactly worker 1", rr.Faults)
		}
		f := rr.Faults[0]
		// A mid-run panic is NOT retried: the shard is already suspect.
		if f.Worker != 1 || !f.Tainted || f.Attempts != 1 || f.Lost != 2 {
			t.Errorf("fault = %+v, want tainted single-attempt quarantine of worker 1", f)
		}
		if !strings.Contains(f.Err.Error(), "injected mid-run panic") {
			t.Errorf("fault error %v", f.Err)
		}
		clean := vm.Options{CollectEdges: true, CollectPaths: true, Backend: be}
		want := runReplicated(t, clean, 6, 3).Merged.Fingerprint()
		if rr.Merged.Fingerprint() != want {
			t.Error("merge after tainted quarantine differs from clean survivor run")
		}
	})
}

// TestGuardStallDeadline stalls one worker's hook past the replica
// deadline; the worker quarantines after its bounded retries instead
// of hanging the run.
func TestGuardStallDeadline(t *testing.T) {
	forEachBackend(t, func(t *testing.T, be vm.Backend) {
		opts := vm.Options{
			CollectEdges: true, Backend: be,
			Guard: &vm.GuardConfig{
				ReplicaRetries:  1,
				ReplicaDeadline: 5 * time.Millisecond,
				FaultHook: func(ctx vm.FaultContext) error {
					if ctx.Worker == 0 {
						time.Sleep(12 * time.Millisecond)
					}
					return nil
				},
			},
		}
		rr := runReplicated(t, opts, 4, 2)
		if len(rr.Faults) != 1 || rr.Faults[0].Worker != 0 {
			t.Fatalf("faults = %v, want stalled worker 0", rr.Faults)
		}
		if !strings.Contains(rr.Faults[0].Err.Error(), "deadline") {
			t.Errorf("fault error %v, want a deadline error", rr.Faults[0].Err)
		}
		if rr.Survivors() != 2 {
			t.Errorf("survivors = %d, want 2", rr.Survivors())
		}
	})
}

// TestGuardAllShardsQuarantined: when every shard dies the guarded run
// reports a structured error instead of returning an empty snapshot.
func TestGuardAllShardsQuarantined(t *testing.T) {
	prog := compile(t, loopSrc, lower.Options{})
	forEachBackend(t, func(t *testing.T, be vm.Backend) {
		opts := vm.Options{
			CollectEdges: true, Backend: be,
			Guard: &vm.GuardConfig{
				FaultHook: func(ctx vm.FaultContext) error { return fmt.Errorf("boom") },
			},
		}
		_, err := vm.RunReplicated(prog, opts, 4, 2)
		if err == nil || !strings.Contains(err.Error(), "all 2 shards quarantined") {
			t.Fatalf("err = %v, want all-shards-quarantined", err)
		}
	})
}

// TestGuardOverflowPreload uses the hook's sink access to preload a
// counter at the ceiling; the merged snapshot must surface the
// saturated routine without quarantining anything.
func TestGuardOverflowPreload(t *testing.T) {
	forEachBackend(t, func(t *testing.T, be vm.Backend) {
		opts := vm.Options{
			CollectEdges: true, CollectPaths: true, Backend: be,
			Guard: &vm.GuardConfig{
				FaultHook: func(ctx vm.FaultContext) error {
					if ctx.Replica == 0 && ctx.Attempt == 0 {
						ctx.Sink.EdgeProfile("work").Add(0, 1, profile.CounterMax)
						ctx.Sink.EdgeProfile("work").Add(0, 1, profile.CounterMax)
					}
					return nil
				},
			},
		}
		rr := runReplicated(t, opts, 8, 4)
		if len(rr.Faults) != 0 {
			t.Fatalf("overflow pressure quarantined a shard: %v", rr.Faults)
		}
		sat := rr.Merged.SaturatedRoutines()
		if len(sat) != 1 || sat[0] != "work" {
			t.Fatalf("SaturatedRoutines = %v, want [work]", sat)
		}
	})
}

// TestGuardFaultMatrixDeterministic drives the faultinject kinds that
// act at this layer through guarded runs twice each and demands
// identical outcomes: same fingerprints, same fault lists, no crash.
func TestGuardFaultMatrixDeterministic(t *testing.T) {
	prog := compile(t, loopSrc, lower.Options{})
	forEachBackend(t, func(t *testing.T, be vm.Backend) {
		for _, kind := range []faultinject.Kind{faultinject.Panic, faultinject.Overflow} {
			for _, seed := range []uint64{1, 7, 2026} {
				spec := fmt.Sprintf("seed=%d,kind=%s", seed, kind)
				inj, err := faultinject.Parse(spec)
				if err != nil {
					t.Fatal(err)
				}
				run := func() (uint64, string) {
					opts := vm.Options{
						CollectEdges: true, CollectPaths: true, Backend: be,
						Guard: &vm.GuardConfig{
							ReplicaRetries: 1,
							FaultHook:      GuardHookForTest(inj),
						},
					}
					rr, err := vm.RunReplicated(prog, opts, 12, 4)
					if err != nil {
						// All shards dead is an acceptable structured
						// outcome, but it must be stable across repeats.
						return 0, err.Error()
					}
					return rr.Merged.Fingerprint(), fmt.Sprint(rr.Faults)
				}
				fp1, f1 := run()
				fp2, f2 := run()
				if fp1 != fp2 || f1 != f2 {
					t.Errorf("%s: outcomes diverge across repeats:\n%x %s\n%x %s", spec, fp1, f1, fp2, f2)
				}
			}
		}
	})
}

// GuardHookForTest adapts a faultinject.Injector to a guard hook the
// way the CLI wires it: panic and overflow keyed by replica index so
// the injected fault set is independent of worker count.
func GuardHookForTest(inj *faultinject.Injector) func(vm.FaultContext) error {
	return func(ctx vm.FaultContext) error {
		site := uint64(ctx.Replica)
		if ctx.Attempt == 0 && inj.Hit(faultinject.Panic, site) {
			panic(fmt.Sprintf("faultinject: panic at replica %d", ctx.Replica))
		}
		if ctx.Attempt == 0 && inj.Hit(faultinject.Overflow, site) {
			ep := ctx.Sink.EdgeProfile("work")
			ep.Add(0, 1, profile.CounterMax)
			ep.Add(0, 1, profile.CounterMax)
		}
		return nil
	}
}

// Replicated execution: run n replicas of a workload across a bounded
// worker pool, each worker feeding a private profile shard, and merge
// the shards into one deterministic snapshot. This is the serving
// shape of the profiling runtime — many concurrent requests of the
// same program, counters sharded per core, aggregation off the hot
// path — scaled down to the repository's deterministic VM.
package vm

import (
	"fmt"
	"sync"
	"time"

	"pathprof/internal/cfg"
	"pathprof/internal/ir"
	"pathprof/internal/profile"
	"pathprof/internal/telemetry"
)

// FaultContext describes one replica attempt to a GuardConfig
// FaultHook.
type FaultContext struct {
	Worker  int // shard index
	Replica int // global replica index
	Attempt int // 0 on the first try, counting retries
	// Sink is the worker's shard. Overflow injection preloads its
	// counters here; any mutation must be deterministic in Replica so
	// merged snapshots stay reproducible across worker counts.
	Sink *profile.Shard
}

// GuardConfig configures guarded replication: how hard RunReplicated
// tries to keep a run alive when replicas fail, and the hook through
// which fault injection drives those failures.
type GuardConfig struct {
	// ReplicaRetries bounds retries of a replica whose pre-run hook
	// failed cleanly (the shard untouched). 0 means no retries.
	ReplicaRetries int
	// ReplicaDeadline bounds each replica's wall clock, checked after
	// every attempt; 0 disables the check. A replica that finishes past
	// its deadline taints the shard: its counts are already recorded,
	// so the whole shard is quarantined rather than unpicked.
	ReplicaDeadline time.Duration
	// FaultHook, if set, runs before every replica attempt. A returned
	// error (or a panic) is a clean pre-run fault: the shard has not
	// been written, so the replica is retried up to ReplicaRetries. A
	// nil-returning hook may still inject pressure by mutating
	// ctx.Sink (counter-overflow preloading).
	FaultHook func(ctx FaultContext) error
}

// ShardFault records one quarantined shard in a guarded run.
type ShardFault struct {
	Worker   int  // shard index
	Replica  int  // replica the terminal failure surfaced on
	Attempts int  // attempts made for that replica
	Tainted  bool // failure during/after Run: partial counts were possible
	Lost     int  // replicas excluded from the merge with this shard
	Err      error
}

func (f ShardFault) String() string {
	state := "clean"
	if f.Tainted {
		state = "tainted"
	}
	return fmt.Sprintf("shard %d: %s quarantine at replica %d after %d attempt(s), %d replica(s) lost: %v",
		f.Worker, state, f.Replica, f.Attempts, f.Lost, f.Err)
}

// ReplicatedResult aggregates a RunReplicated execution: summed costs
// and step counts across all replicas, plus the merged profile
// snapshot.
type ReplicatedResult struct {
	Replicas int
	Workers  int
	Ret      int64 // every replica's (identical) return value

	BaseCost  int64 // summed over replicas
	InstrCost int64
	Steps     int64
	DynCalls  int64

	// Merged is the deterministic fan-in of every worker's shard:
	// bit-identical to a sequential (Workers=1) run at any worker
	// count.
	Merged *profile.Snapshot
	// DAGs are the per-routine DAGs of one replica (all replicas build
	// identical DAGs), for interpreting the merged paths.
	DAGs map[string]*cfg.DAG

	// Faults lists quarantined shards, in shard order (guarded mode
	// only; empty on a clean run). Merged excludes their counts.
	Faults []ShardFault
	// LostReplicas is the number of replicas whose flow is missing
	// from Merged because their shard was quarantined.
	LostReplicas int

	Elapsed time.Duration // wall clock of the whole replicated run
}

// Survivors returns the number of replicas whose counts made it into
// Merged.
func (r *ReplicatedResult) Survivors() int { return r.Replicas - r.LostReplicas }

// RunsPerSec returns replica throughput over the measured wall clock.
func (r *ReplicatedResult) RunsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Replicas) / r.Elapsed.Seconds()
}

// RunReplicated executes n replicas of the program under opts across
// par workers. Replicas are block-partitioned over workers in index
// order and each worker records into its own profile.Shard with the
// single-threaded fast paths, so the hot loop never synchronizes; the
// shards merge afterwards in worker order, which makes the merged
// snapshot bit-identical to a sequential run regardless of par.
//
// The engine — plan lowering and validation, DAGs, successor specs,
// threaded-code compilation and its validation — is built ONCE and
// shared by every worker; each worker binds it to its own shard and
// reuses that binding (executor, pooled frames) across all of its
// replicas.
//
// opts.PathHook is overridden per worker by opts.PathHookFor when that
// is set; opts.Output, if set, must be safe for concurrent writes.
func RunReplicated(prog *ir.Program, opts Options, n, par int) (*ReplicatedResult, error) {
	e, err := NewEngine(prog, opts)
	if err != nil {
		return nil, err
	}
	return e.RunReplicated(n, par)
}

// RunReplicated executes n replicas across par workers against the
// prepared engine; see the package-level RunReplicated.
func (e *Engine) RunReplicated(n, par int) (*ReplicatedResult, error) {
	if n <= 0 {
		return nil, fmt.Errorf("vm: RunReplicated needs at least 1 replica, got %d", n)
	}
	if par < 1 {
		par = 1
	}
	if par > n {
		par = n
	}
	opts := &e.opts
	col := profile.NewCollector(par)
	type workerOut struct {
		base, instr, steps, calls int64
		ret                       int64
		ran                       bool
		dags                      map[string]*cfg.DAG
		err                       error
		fault                     *ShardFault
	}
	outs := make([]workerOut, par)
	guard := opts.Guard
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		lo, hi := w*n/par, (w+1)*n/par
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			o := &outs[w]
			shard := col.Shard(w)
			hook := opts.PathHook
			if opts.PathHookFor != nil {
				hook = opts.PathHookFor(w)
			}
			b, err := e.bind(shard, w, hook)
			if err != nil {
				o.err = err
				return
			}
			for i := lo; i < hi; i++ {
				var res *Result
				if guard == nil {
					res, err = b.run(opts.Args)
					if err != nil {
						o.err = fmt.Errorf("replica %d: %w", i, err)
						return
					}
				} else {
					var fault *ShardFault
					res, fault = b.runGuarded(guard, shard, w, i)
					if fault != nil {
						// Quarantine: the shard's counts (this replica's
						// and its predecessors') leave the merge, so the
						// whole block is lost flow.
						fault.Lost = hi - lo
						o.fault = fault
						return
					}
				}
				if o.ran && res.Ret != o.ret {
					o.err = fmt.Errorf("replica %d: nondeterministic result %d vs %d", i, res.Ret, o.ret)
					return
				}
				o.ret, o.ran = res.Ret, true
				o.base += res.BaseCost
				o.instr += res.InstrCost
				o.steps += res.Steps
				o.calls += res.DynCalls
				if o.dags == nil {
					o.dags = res.DAGs
				}
			}
		}(w, lo, hi)
	}
	wg.Wait()

	rr := &ReplicatedResult{Replicas: n, Workers: par}
	include := make([]bool, par)
	for w := range outs {
		o := &outs[w]
		if o.err != nil {
			return nil, fmt.Errorf("vm: worker %d: %w", w, o.err)
		}
		if o.fault != nil {
			rr.Faults = append(rr.Faults, *o.fault)
			rr.LostReplicas += o.fault.Lost
			// The quarantine event carries only fields deterministic in
			// (worker, replica) — never o.fault.Err, whose text can embed
			// wall-clock durations.
			if opts.Trace != nil {
				state := "clean"
				if o.fault.Tainted {
					state = "tainted"
				}
				opts.Trace.Emit(telemetry.Event{
					Unit:    opts.TraceUnit,
					Routine: fmt.Sprintf("shard-%d", w),
					Kind:    telemetry.EvQuarantine,
					Flow:    int64(o.fault.Lost),
					Detail: fmt.Sprintf("%s quarantine at replica %d after %d attempt(s): %d replica(s) left the merge",
						state, o.fault.Replica, o.fault.Attempts, o.fault.Lost),
				})
			}
			continue
		}
		include[w] = true
		if !o.ran {
			continue
		}
		if rr.DAGs == nil {
			rr.Ret = o.ret
			rr.DAGs = o.dags
		} else if o.ret != rr.Ret {
			return nil, fmt.Errorf("vm: worker %d: nondeterministic result %d vs %d", w, o.ret, rr.Ret)
		}
		rr.BaseCost += o.base
		rr.InstrCost += o.instr
		rr.Steps += o.steps
		rr.DynCalls += o.calls
	}
	if guard != nil && rr.LostReplicas >= n {
		return nil, fmt.Errorf("vm: all %d shards quarantined; first fault: %v", par, rr.Faults[0])
	}
	// MergeShards with every shard included is Merge; the guarded path
	// drops quarantined shards, which is exactly a collector that never
	// held them.
	rr.Merged = col.MergeShards(include)
	rr.Elapsed = time.Since(start)
	return rr, nil
}

// runGuarded executes one replica under guard: the pre-run hook and
// the run itself are panic-isolated, clean pre-run faults retry up to
// the budget, and any failure or deadline overrun from the run itself
// returns a tainted ShardFault (the shard may hold partial counts, so
// the caller must quarantine it).
func (b *binding) runGuarded(guard *GuardConfig, sink *profile.Shard, w, i int) (*Result, *ShardFault) {
	replicaStart := time.Now()
	overDeadline := func() bool {
		return guard.ReplicaDeadline > 0 && time.Since(replicaStart) > guard.ReplicaDeadline
	}
	for attempt := 0; ; attempt++ {
		herr := callFaultHook(guard, FaultContext{Worker: w, Replica: i, Attempt: attempt, Sink: sink})
		if herr == nil && overDeadline() {
			herr = fmt.Errorf("vm: deadline %s exceeded before run", guard.ReplicaDeadline)
		}
		if herr != nil {
			if attempt < guard.ReplicaRetries && !overDeadline() {
				continue
			}
			return nil, &ShardFault{
				Worker: w, Replica: i, Attempts: attempt + 1,
				Err: fmt.Errorf("replica %d: %w", i, herr),
			}
		}
		res, rerr := b.runRecovered()
		if rerr == nil && overDeadline() {
			rerr = fmt.Errorf("vm: run finished %s past its %s deadline",
				time.Since(replicaStart)-guard.ReplicaDeadline, guard.ReplicaDeadline)
		}
		if rerr != nil {
			return nil, &ShardFault{
				Worker: w, Replica: i, Attempts: attempt + 1, Tainted: true,
				Err: fmt.Errorf("replica %d: %w", i, rerr),
			}
		}
		return res, nil
	}
}

// callFaultHook runs the guard's hook, converting a panic into an
// error so injected panics are indistinguishable from returned faults.
func callFaultHook(guard *GuardConfig, ctx FaultContext) (err error) {
	if guard.FaultHook == nil {
		return nil
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("vm: fault hook panicked: %v", r)
		}
	}()
	return guard.FaultHook(ctx)
}

// runRecovered is a bound replica run with panic isolation: a
// panicking replica reports an error instead of tearing down the whole
// replicated run.
func (b *binding) runRecovered() (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("vm: replica panicked: %v", r)
		}
	}()
	return b.run(b.eng.opts.Args)
}

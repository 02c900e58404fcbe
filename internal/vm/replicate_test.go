package vm_test

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"pathprof/internal/cfg"
	"pathprof/internal/instr"
	"pathprof/internal/ir"
	"pathprof/internal/lower"
	"pathprof/internal/profile"
	"pathprof/internal/vm"
)

// replSrc mixes loops, calls, and data-dependent branches so replicas
// exercise edge slots, the path trie, and instrumentation tables.
const replSrc = `
var acc = 0;
func work(n) {
	var s = 0;
	for (var i = 0; i < n; i = i + 1) {
		if (i % 3 == 0) { s = s + i; } else { s = s - 1; }
		if (i % 7 == 0) { s = s + 2; }
	}
	return s;
}
func main() {
	var t = 0;
	var j = 0;
	while (j < 40) {
		t = t + work(j);
		j = j + 1;
	}
	acc = t;
	return t;
}`

// replPlans builds Ball-Larus (PP) instrumentation plans for every
// routine; hashThreshold 0 keeps the default, a small value forces the
// 701-slot hash table so replication covers its sharded form too.
func replPlans(t *testing.T, prog *ir.Program, hashThreshold int64) map[string]*instr.Plan {
	t.Helper()
	res := run(t, prog, vm.Options{CollectPaths: true})
	var total int64
	for _, pp := range res.Paths {
		total += pp.Total()
	}
	par := instr.DefaultParams()
	if hashThreshold > 0 {
		par.HashThreshold = hashThreshold
	}
	plans := map[string]*instr.Plan{}
	for _, f := range prog.Funcs {
		plan, err := instr.Build(mustCFG(t, f), instr.PP(), par, total)
		if err != nil {
			t.Fatalf("plan %s: %v", f.Name, err)
		}
		plans[f.Name] = plan
	}
	return plans
}

// TestRunReplicatedMatchesSequential is the determinism guarantee: the
// merged snapshot, aggregate costs, and return value of a replicated
// run are identical at every worker count, and equal n times a single
// run.
func TestRunReplicatedMatchesSequential(t *testing.T) {
	prog := compile(t, replSrc, lower.Options{})
	forEachExecutor(t, func(t *testing.T, on selectExec) {
		opts := on(vm.Options{CollectEdges: true, CollectPaths: true})
		const n = 6

		single := run(t, prog, opts)
		seq, err := vm.RunReplicated(prog, opts, n, 1)
		if err != nil {
			t.Fatal(err)
		}
		if seq.Ret != single.Ret || seq.Workers != 1 || seq.Replicas != n {
			t.Fatalf("sequential replicated: ret=%d workers=%d replicas=%d", seq.Ret, seq.Workers, seq.Replicas)
		}
		if seq.Steps != n*single.Steps || seq.BaseCost != n*single.BaseCost || seq.DynCalls != n*single.DynCalls {
			t.Errorf("aggregates not %dx a single run: steps %d vs %d", n, seq.Steps, n*single.Steps)
		}
		for fn, ep := range single.Edges {
			merged := seq.Merged.Edges[fn]
			if merged == nil {
				t.Fatalf("merged profile missing %s", fn)
			}
			for k, v := range ep.Freq() {
				if got := merged.Get(k.Src, k.Dst); got != n*v {
					t.Errorf("%s edge %v: merged %d, want %d", fn, k, got, n*v)
				}
			}
		}
		for fn, pp := range single.Paths {
			mp := seq.Merged.Paths[fn]
			if mp.Total() != n*pp.Total() || mp.Distinct() != pp.Distinct() {
				t.Errorf("%s paths: total %d distinct %d, want %d/%d",
					fn, mp.Total(), mp.Distinct(), n*pp.Total(), pp.Distinct())
			}
		}

		want := seq.Merged.Fingerprint()
		for _, par := range []int{2, 3, 4, 8} {
			rr, err := vm.RunReplicated(prog, opts, n, par)
			if err != nil {
				t.Fatal(err)
			}
			if rr.Ret != seq.Ret || rr.Steps != seq.Steps || rr.BaseCost != seq.BaseCost {
				t.Errorf("par=%d: aggregates differ from sequential", par)
			}
			if fp := rr.Merged.Fingerprint(); fp != want {
				t.Errorf("par=%d: merged fingerprint %#x != sequential %#x", par, fp, want)
			}
			if rr.DAGs["main"] == nil {
				t.Errorf("par=%d: no DAGs captured", par)
			}
		}

		// par above n clamps to n workers.
		rr, err := vm.RunReplicated(prog, opts, 2, 16)
		if err != nil {
			t.Fatal(err)
		}
		if rr.Workers != 2 {
			t.Errorf("workers = %d, want clamp to 2", rr.Workers)
		}
		if _, err := vm.RunReplicated(prog, opts, 0, 1); err == nil {
			t.Error("n=0 accepted")
		}
	})
}

// TestRunReplicatedInstrumentedTables checks the sharded counter
// tables: array and (forced) hash tables merge bit-identically at
// every worker count, including cold totals and lost counts.
func TestRunReplicatedInstrumentedTables(t *testing.T) {
	prog := compile(t, replSrc, lower.Options{})
	forEachExecutor(t, func(t *testing.T, on selectExec) {
		for _, hashThreshold := range []int64{0, 2} { // default arrays, forced hash
			plans := replPlans(t, prog, hashThreshold)
			opts := on(vm.Options{Plans: plans, CollectPaths: true})
			seq, err := vm.RunReplicated(prog, opts, 5, 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(seq.Merged.Tables) == 0 {
				t.Fatal("no tables collected")
			}
			hashed := false
			for _, tab := range seq.Merged.Tables {
				hashed = hashed || tab.Kind == profile.HashTable
			}
			if hashThreshold > 0 && !hashed {
				t.Fatal("forced hash threshold produced no hash table")
			}
			want := seq.Merged.Fingerprint()
			for _, par := range []int{2, 4} {
				rr, err := vm.RunReplicated(prog, opts, 5, par)
				if err != nil {
					t.Fatal(err)
				}
				if fp := rr.Merged.Fingerprint(); fp != want {
					t.Errorf("hashThreshold=%d par=%d: fingerprint %#x != sequential %#x",
						hashThreshold, par, fp, want)
				}
				if rr.InstrCost != seq.InstrCost {
					t.Errorf("hashThreshold=%d par=%d: instr cost %d vs %d",
						hashThreshold, par, rr.InstrCost, seq.InstrCost)
				}
				for fn, tab := range seq.Merged.Tables {
					got := rr.Merged.Tables[fn]
					if got.ColdTotal() != tab.ColdTotal() || got.Lost != tab.Lost {
						t.Errorf("%s: cold/lost %d/%d vs sequential %d/%d",
							fn, got.ColdTotal(), got.Lost, tab.ColdTotal(), tab.Lost)
					}
				}
			}
		}
	})
}

// TestRunReplicatedPerWorkerHooks routes each worker's path stream to
// a private hook via PathHookFor and checks the fan-in accounts for
// every completed path.
func TestRunReplicatedPerWorkerHooks(t *testing.T) {
	prog := compile(t, replSrc, lower.Options{})
	forEachExecutor(t, func(t *testing.T, on selectExec) {
		const n, par = 6, 3
		counts := make([]int64, par)
		opts := on(vm.Options{
			CollectPaths: true,
			PathHookFor: func(worker int) func(fn string, p cfg.Path) {
				return func(fn string, p cfg.Path) { counts[worker]++ }
			},
		})
		rr, err := vm.RunReplicated(prog, opts, n, par)
		if err != nil {
			t.Fatal(err)
		}
		var total, merged int64
		for _, c := range counts {
			total += c
		}
		for _, pp := range rr.Merged.Paths {
			merged += pp.Total()
		}
		if total != merged || total == 0 {
			t.Errorf("hooks saw %d paths, merged profile has %d", total, merged)
		}
		for w, c := range counts {
			if c == 0 {
				t.Errorf("worker %d hook never fired", w)
			}
		}
	})
}

// TestRunReplicatedScaling is the throughput smoke: with 4+ CPUs, 4
// workers must beat sequential clearly (the acceptance bar is 3x on a
// dedicated 4-core box; 1.5x here keeps shared CI out of flake range).
func TestRunReplicatedScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("needs 4+ CPUs, have %d", runtime.NumCPU())
	}
	prog := compile(t, replSrc, lower.Options{})
	opts := vm.Options{CollectEdges: true, CollectPaths: true}
	const n = 32
	measure := func(par int) time.Duration {
		best := time.Duration(1<<63 - 1)
		for i := 0; i < 3; i++ {
			rr, err := vm.RunReplicated(prog, opts, n, par)
			if err != nil {
				t.Fatal(err)
			}
			if rr.Elapsed < best {
				best = rr.Elapsed
			}
		}
		return best
	}
	seq, par4 := measure(1), measure(4)
	speedup := float64(seq) / float64(par4)
	t.Logf("replicated scaling: seq %v, 4 workers %v, speedup %.2fx", seq, par4, speedup)
	if speedup < 1.5 {
		t.Errorf("4-worker speedup %.2fx below 1.5x floor", speedup)
	}
}

func BenchmarkRunReplicated(b *testing.B) {
	prog, err := lower.Compile(replSrc, lower.Options{})
	if err != nil {
		b.Fatal(err)
	}
	opts := vm.Options{CollectEdges: true, CollectPaths: true}
	for _, par := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", par), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := vm.RunReplicated(prog, opts, 8, par); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestForeignSlotSink runs against a sink whose edge profile already
// registered the routine's edges in a foreign slot order. Edge slots
// are compiled into the code, so the engine must refuse the sink with
// an error naming the remedy rather than panic or miscount, whichever
// executor runs it.
func TestForeignSlotSink(t *testing.T) {
	prog := compile(t, replSrc, lower.Options{})
	fresh := profile.NewCollector(1)
	if _, err := vm.Run(prog, vm.Options{CollectEdges: true, CollectPaths: true, Sink: fresh.Shard(0)}); err != nil {
		t.Fatal(err)
	}

	// foreign pre-registers every edge of work in reverse canonical
	// slot order, before any run touches the shard.
	canon := fresh.Shard(0).EdgeProfile("work")
	var pairs []profile.EdgeKey
	for k := range canon.Freq() {
		pairs = append(pairs, k)
	}
	if len(pairs) < 2 {
		t.Fatalf("work has %d edges; a foreign order needs two", len(pairs))
	}
	sort.Slice(pairs, func(i, j int) bool {
		return canon.Slot(pairs[i].Src, pairs[i].Dst) > canon.Slot(pairs[j].Src, pairs[j].Dst)
	})
	foreign := func() *profile.Collector {
		c := profile.NewCollector(1)
		ep := c.Shard(0).EdgeProfile("work")
		for _, k := range pairs {
			ep.Slot(k.Src, k.Dst)
		}
		return c
	}

	forEachExecutor(t, func(t *testing.T, on selectExec) {
		c := foreign()
		_, err := vm.Run(prog, on(vm.Options{CollectEdges: true, CollectPaths: true, Sink: c.Shard(0)}))
		if err == nil {
			t.Fatal("a foreign-slot sink was accepted")
		}
		if !strings.Contains(err.Error(), "fresh shards") {
			t.Errorf("error %q does not name fresh shards as the remedy", err)
		}
		for fn, ep := range c.Merge().Edges {
			for k, n := range ep.Freq() {
				if n != 0 {
					t.Errorf("%s edge %v counted %d on a refused run", fn, k, n)
				}
			}
		}
	})
}

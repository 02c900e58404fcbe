package vm

import (
	"testing"

	"pathprof/internal/instr"
	"pathprof/internal/lower"
	"pathprof/internal/telemetry"
	"pathprof/internal/vm/compile"
)

const allocSrc = `
var acc = 0;
func work(n) {
	var s = 0;
	for (var i = 0; i < n; i = i + 1) {
		if (i % 3 == 0) { s = s + i; } else { s = s - 1; }
	}
	return s;
}
func main() {
	for (var k = 0; k < 8; k = k + 1) { acc = acc + work(12); }
	return acc;
}`

// TestCompiledSteadyStateAllocs pins the compiled executor's zero-alloc
// contract: once replicas have grown the path trie, interned its
// paths, sized the frame and path pools, and formed their hot-path
// traces, every further replica must allocate nothing. This is what
// makes replicated runs scale — the hot loop neither allocates nor
// shares, so workers never touch the allocator or each other. The
// runs are metered, which is how the test reads their trace
// formations. Traces form when a path's count reaches
// compile.TraceAt, and every path of a replica runs at least once per
// replica, so TraceAt warm replicas leave nothing to form.
func TestCompiledSteadyStateAllocs(t *testing.T) {
	prog, err := lower.Compile(allocSrc, lower.Options{})
	if err != nil {
		t.Fatal(err)
	}

	steady := func(t *testing.T, opts Options) {
		t.Helper()
		m := telemetry.NewVMMetrics(telemetry.NewRegistry(1))
		opts.Metrics = m
		traces := func() [2]int64 { return [2]int64{m.TracesFormed.Value(), m.TracesRejected.Value()} }
		e, err := NewEngine(prog, opts)
		if err != nil {
			t.Fatal(err)
		}
		b, err := e.bind(nil, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		replica := func() {
			b.x.Reset()
			if _, err := b.x.Run(e.entryIdx, nil); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < compile.TraceAt; i++ {
			replica() // warm: trie nodes, interned paths, pools, traces
		}
		warm := traces()
		if warm[0] == 0 || warm[1] != 0 {
			t.Fatalf("warm replicas formed and rejected traces %v, want some and none", warm)
		}
		if avg := testing.AllocsPerRun(20, replica); avg != 0 {
			t.Errorf("steady-state replica allocates %.1f times, want 0", avg)
		}
		if got := traces(); got != warm {
			t.Errorf("steady-state replicas formed traces: %v after warm-up, %v after", warm, got)
		}
	}

	t.Run("profiling", func(t *testing.T) {
		steady(t, Options{CollectEdges: true, CollectPaths: true})
	})

	t.Run("instrumented", func(t *testing.T) {
		profiled, err := Run(prog, Options{CollectEdges: true, CollectPaths: true})
		if err != nil {
			t.Fatal(err)
		}
		plans := map[string]*instr.Plan{}
		for _, f := range prog.Funcs {
			g, err := f.CFG()
			if err != nil {
				t.Fatal(err)
			}
			profiled.Edges[f.Name].ApplyTo(g)
			p, err := instr.Build(g, instr.PP(), instr.DefaultParams(), 0)
			if err != nil {
				t.Fatalf("plan %s: %v", f.Name, err)
			}
			plans[f.Name] = p
		}
		steady(t, Options{Plans: plans, CollectPaths: true})
	})
}

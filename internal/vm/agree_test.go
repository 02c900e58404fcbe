package vm_test

import (
	"bytes"
	"testing"

	"pathprof/internal/cfg"
	"pathprof/internal/core"
	"pathprof/internal/instr"
	"pathprof/internal/ir"
	"pathprof/internal/lower"
	"pathprof/internal/telemetry"
	"pathprof/internal/vm"
	"pathprof/internal/workloads"
)

// requireSameRun asserts two results are observably identical: return
// value, cost accounting, step and call counts, and profile
// fingerprint.
func requireSameRun(t *testing.T, label string, want, got *vm.Result) {
	t.Helper()
	if want.Ret != got.Ret {
		t.Errorf("%s: ret %d vs %d", label, want.Ret, got.Ret)
	}
	if want.Steps != got.Steps {
		t.Errorf("%s: steps %d vs %d", label, want.Steps, got.Steps)
	}
	if want.BaseCost != got.BaseCost {
		t.Errorf("%s: base cost %d vs %d", label, want.BaseCost, got.BaseCost)
	}
	if want.InstrCost != got.InstrCost {
		t.Errorf("%s: instr cost %d vs %d", label, want.InstrCost, got.InstrCost)
	}
	if want.DynCalls != got.DynCalls {
		t.Errorf("%s: dyn calls %d vs %d", label, want.DynCalls, got.DynCalls)
	}
	if wf, gf := want.Snapshot().Fingerprint(), got.Snapshot().Fingerprint(); wf != gf {
		t.Errorf("%s: profile fingerprint %#x vs %#x", label, wf, gf)
	}
}

// streamDigest folds a path-hook stream — routine name and DAG edge IDs
// of every completed path, in order — into one FNV-1a hash.
type streamDigest struct{ h uint64 }

func (d *streamDigest) byte(c byte) {
	if d.h == 0 {
		d.h = 14695981039346656037
	}
	d.h = (d.h ^ uint64(c)) * 1099511628211
}

func (d *streamDigest) hook(fn string, p cfg.Path) {
	for i := 0; i < len(fn); i++ {
		d.byte(fn[i])
	}
	d.byte(0)
	for _, e := range p {
		for v := uint32(e.ID); ; v >>= 7 {
			if v < 0x80 {
				d.byte(byte(v))
				break
			}
			d.byte(byte(v) | 0x80)
		}
	}
	d.byte(0xff)
}

// TestInterpAgreesOnWorkloads stages every workload through the
// pipeline on the compiled executor, then replays each run the
// pipeline performs — the original and unrolled profiling runs, the
// optimized base run with its path stream, the PP/TPP/PPP instrumented
// runs, their min-cost edge-probed twins, and the edge-overhead run —
// on the compiled executor and on the reference interpreter. The two must be
// bit-identical, print the same bytes, and the compiled replay must reproduce the pipeline's
// own results, which shows the replayed options are the ones the
// pipeline ran. Plans, modes and every table are functions of the
// staging profile, so equal profiles here carry the suite's output.
func TestInterpAgreesOnWorkloads(t *testing.T) {
	ws := workloads.All()
	if testing.Short() {
		ws = ws[:4]
	}
	for _, w := range ws {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			var piped streamDigest
			pl := core.NewPipeline(w.Name, w.Source)
			pl.PathHook = piped.hook
			staged, err := pl.Stage()
			if err != nil {
				t.Fatal(err)
			}
			costed := func(o vm.Options) vm.Options {
				o.Costs, o.Entry, o.MaxSteps = pl.Costs, pl.Entry, pl.MaxSteps
				return o
			}
			// both runs opts on each executor, requires them identical,
			// printed output included, and returns the compiled result.
			// A metered run (tel) must also count the same VM counters.
			both := func(label string, prog *ir.Program, opts vm.Options, tel bool) *vm.Result {
				t.Helper()
				var cout, dout bytes.Buffer
				var regs [2]*telemetry.Registry
				var ms [2]*telemetry.VMMetrics
				meter := func(i int) {
					if tel {
						regs[i] = telemetry.NewRegistry(1)
						ms[i] = telemetry.NewVMMetrics(regs[i])
						opts.Metrics = ms[i]
					}
				}
				opts.Output = &cout
				meter(0)
				c, err := vm.Run(prog, opts)
				if err != nil {
					t.Fatalf("%s compiled: %v", label, err)
				}
				opts.Output = &dout
				meter(1)
				d, err := vm.Run(prog, vm.Interp(opts))
				if err != nil {
					t.Fatalf("%s dense: %v", label, err)
				}
				requireSameRun(t, label+" dense vs compiled", c, d)
				if !bytes.Equal(cout.Bytes(), dout.Bytes()) {
					t.Errorf("%s: output %q compiled vs %q dense", label, cout.String(), dout.String())
				}
				if cout.Len() == 0 {
					t.Errorf("%s: printed nothing", label)
				}
				if tel {
					cc, dc := readVMCounters(regs[0], ms[0]), readVMCounters(regs[1], ms[1])
					if cc != dc {
						t.Errorf("%s: VM counters\ncompiled %+v\ndense    %+v", label, cc, dc)
					}
					if cc.Transitions == 0 || cc.Paths == 0 {
						t.Errorf("%s: metered counters stayed zero: %+v", label, cc)
					}
				}
				return c
			}

			r := both("original", staged.Original, costed(vm.Options{CollectEdges: true, CollectPaths: true}), false)
			requireSameRun(t, "original replay", staged.OriginalRun, r)

			unrolled, err := lower.Compile(w.Source, lower.Options{Unroll: staged.UnrollPlan})
			if err != nil {
				t.Fatal(err)
			}
			r = both("unrolled", unrolled, costed(vm.Options{CollectEdges: true}), false)
			if r.Ret != staged.OriginalRun.Ret || r.DynCalls != staged.DynCallsBeforeInline {
				t.Errorf("unrolled replay: ret %d, %d calls; pipeline ran ret %d, %d calls",
					r.Ret, r.DynCalls, staged.OriginalRun.Ret, staged.DynCallsBeforeInline)
			}

			// The base run feeds the NET predictor through its path hook,
			// so its stream must match too.
			var cs, ds streamDigest
			baseOpts := costed(vm.Options{CollectEdges: true, CollectPaths: true})
			baseOpts.PathHook = cs.hook
			r, err = vm.Run(staged.Prog, baseOpts)
			if err != nil {
				t.Fatal(err)
			}
			requireSameRun(t, "base replay", staged.Base, r)
			baseOpts.PathHook = ds.hook
			d, err := vm.Run(staged.Prog, vm.Interp(baseOpts))
			if err != nil {
				t.Fatal(err)
			}
			requireSameRun(t, "base dense vs compiled", r, d)
			if cs.h != piped.h || ds.h != piped.h {
				t.Errorf("base path stream: pipeline %#x, compiled replay %#x, dense %#x", piped.h, cs.h, ds.h)
			}

			for _, p := range core.Profilers() {
				pr, err := staged.Profile(p.Name, p.Tech)
				if err != nil {
					t.Fatal(err)
				}
				r := both(p.Name, staged.Prog, costed(vm.Options{Plans: pr.Plans, CollectPaths: true}), false)
				requireSameRun(t, p.Name+" replay", pr.Run, r)
				// Placement decides only which transitions carry an edge
				// counter, so min-cost probes show in edge-instrumented
				// runs, as the placement experiment makes them. These runs
				// are metered, so the VM counters are compared too.
				plans, err := staged.PlansFor(p.Name, p.Tech, instr.PlaceMinCost)
				if err != nil {
					t.Fatal(err)
				}
				both(p.Name+" mincost edge-instrumented", staged.Prog, costed(vm.Options{
					Plans: plans, CollectEdges: true, CollectPaths: true, EdgeInstrument: true,
				}), true)
			}

			want, err := staged.EdgeOverheadRun()
			if err != nil {
				t.Fatal(err)
			}
			r = both("edge-overhead", staged.Prog, costed(vm.Options{EdgeInstrument: true}), false)
			requireSameRun(t, "edge-overhead replay", want, r)
		})
	}
}

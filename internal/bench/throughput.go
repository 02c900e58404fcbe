package bench

import (
	"fmt"
	"io"
	"runtime"

	"pathprof/internal/vm"
	"pathprof/internal/workloads"
)

// ThroughputWorkers are the worker counts of the scaling sweep.
var ThroughputWorkers = []int{1, 2, 4, 8}

// DefaultThroughputReplicas is the replica count per measurement.
const DefaultThroughputReplicas = 16

// ThroughputReport measures sharded concurrent collection
// (vm.RunReplicated) on representative workloads: replicas/sec at
// 1/2/4/8 workers, speedup and scaling efficiency at the best worker
// count, and a merge-determinism check — the merged profile snapshot
// must be bit-identical at every worker count. Two collection modes
// run per workload: "exact" (cost-free edge+path profiles, the ground
// truth collector) and "PP" (Ball-Larus instrumentation executing
// against the per-shard counter tables, including hash tables where PP
// needs them). No mode is metered: on a shared host the replica
// throughput of one run swings more than metering could cost.
//
// Unlike the paper's tables, the throughput numbers are wall-clock
// measurements and vary run to run; the determinism column is the part
// that must never vary.
func (s *Suite) ThroughputReport(w io.Writer, replicas int) error {
	if replicas <= 0 {
		replicas = DefaultThroughputReplicas
	}
	sel := s.throughputWorkloads()
	fmt.Fprintf(w, "Sharded collection throughput: %d replicas/run, GOMAXPROCS=%d, %d CPUs\n",
		replicas, runtime.GOMAXPROCS(0), runtime.NumCPU())
	fmt.Fprintf(w, "%-10s %-6s", "bench", "mode")
	for _, par := range ThroughputWorkers {
		fmt.Fprintf(w, " %11s", fmt.Sprintf("w=%d", par))
	}
	fmt.Fprintf(w, " %8s %6s  %s\n", "speedup", "eff", "merge")
	for _, wl := range sel {
		wr, err := s.Run(wl.Name)
		if err != nil {
			return err
		}
		modes := []struct {
			name string
			opts vm.Options
		}{
			{"exact", vm.Options{CollectEdges: true, CollectPaths: true}},
			{"PP", vm.Options{Plans: wr.Profilers["PP"].Plans, CollectPaths: true}},
		}
		for _, mode := range modes {
			fmt.Fprintf(w, "%-10s %-6s", wl.Name, mode.name)
			var rps []float64
			var fps []uint64
			for _, par := range ThroughputWorkers {
				rr, err := vm.RunReplicated(wr.Staged.Prog, mode.opts, replicas, par)
				if err != nil {
					return err
				}
				rps = append(rps, rr.RunsPerSec())
				fps = append(fps, rr.Merged.Fingerprint())
				fmt.Fprintf(w, " %9.1f/s", rr.RunsPerSec())
			}
			best := 0
			for i := range rps {
				if rps[i] > rps[best] {
					best = i
				}
			}
			speedup := 1.0
			if rps[0] > 0 {
				speedup = rps[best] / rps[0]
			}
			eff := speedup / float64(ThroughputWorkers[best])
			merge := "identical"
			for _, f := range fps {
				if f != fps[0] {
					merge = "DIVERGED"
				}
			}
			fmt.Fprintf(w, " %7.2fx %5.0f%%  %s\n", speedup, 100*eff, merge)
		}
	}
	return nil
}

// throughputWorkloads picks the workloads the scaling sweep runs over:
// an explicit -workloads subset verbatim, otherwise a representative
// trio — crafty (complex INT, many warm paths), bzip2 (hash pressure
// under PP), swim (loop-dominated FP) — so the sweep stays fast.
func (s *Suite) throughputWorkloads() []workloads.Workload {
	if len(s.Workloads) < len(workloads.All()) {
		return s.Workloads
	}
	var sel []workloads.Workload
	for _, name := range []string{"crafty", "bzip2", "swim"} {
		for _, wl := range s.Workloads {
			if wl.Name == name {
				sel = append(sel, wl)
			}
		}
	}
	if len(sel) == 0 {
		return s.Workloads
	}
	return sel
}

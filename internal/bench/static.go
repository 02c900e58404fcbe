package bench

import (
	"fmt"
	"io"
	"time"

	"pathprof/internal/verify"
	"pathprof/internal/vm"
)

// StaticOpsRow is the machine-readable static-instrumentation record
// for one routine under one profiler: inserted path-profiling ops, the
// edge-counter probe sites the plan's placement implies, and the cost
// of the static proofs run over the plan — the all-paths verifier
// (verify.Check) and the compiled backend's translation validation,
// both in wall-clock microseconds.
type StaticOpsRow struct {
	Workload      string `json:"workload"`
	Routine       string `json:"routine"`
	Profiler      string `json:"profiler"`
	Ops           int    `json:"static_ops"`
	EdgeSites     int    `json:"static_edge_sites"`
	Instrumented  bool   `json:"instrumented"`
	VerifyProofUs int64  `json:"verify_proof_us"`
	ValidateUs    int64  `json:"validate_us"`
}

// StaticOpsRows flattens every workload x routine x profiler plan into
// rows for pppbench's JSON report, in deterministic order (suite
// workload order, then routine name, then PP/TPP/PPP). The timing
// fields are measured here: the proof verifier runs once per plan, and
// one compiled engine per workload x profiler captures per-routine
// translation-validation time.
func (s *Suite) StaticOpsRows() ([]StaticOpsRow, error) {
	rs, err := s.RunAll()
	if err != nil {
		return nil, err
	}
	var rows []StaticOpsRow
	for _, r := range rs {
		pl := r.Staged.Pipeline
		validateUs := map[string]map[string]int64{}
		for _, p := range []string{"PP", "TPP", "PPP"} {
			eng, err := vm.NewEngine(r.Staged.Prog, vm.Options{
				Costs: pl.Costs, Entry: pl.Entry, MaxSteps: pl.MaxSteps,
				Plans: r.Profilers[p].Plans, CollectPaths: true,
				Backend: vm.BackendCompiled,
			})
			if err != nil {
				return nil, fmt.Errorf("bench: %s/%s: compiled engine: %w", r.W.Name, p, err)
			}
			validateUs[p] = eng.ValidateUs()
		}
		for _, rn := range sortedNames(r.Profilers["PP"].Plans) {
			for _, p := range []string{"PP", "TPP", "PPP"} {
				plan := r.Profilers[p].Plans[rn]
				if plan == nil {
					continue
				}
				start := time.Now()
				rep := verify.Check(plan)
				proofUs := time.Since(start).Microseconds()
				if !rep.OK() {
					return nil, fmt.Errorf("bench: %s/%s/%s: plan fails the all-paths proof:\n%s",
						r.W.Name, p, rn, rep)
				}
				rows = append(rows, StaticOpsRow{
					Workload:      r.W.Name,
					Routine:       rn,
					Profiler:      p,
					Ops:           plan.StaticOps(),
					EdgeSites:     plan.StaticEdgeSites(),
					Instrumented:  plan.Instrumented,
					VerifyProofUs: proofUs,
					ValidateUs:    validateUs[p][rn],
				})
			}
		}
	}
	return rows, nil
}

// StaticReport summarises the compile-time side of each profiler
// (Section 4.7 discusses PPP's analysis cost qualitatively): the
// number of instrumentation operations inserted, the number of
// instrumented routines, hash-table routines, and attributed paths.
// PPP inserts markedly fewer static operations than PP even before any
// dynamic savings.
func (s *Suite) StaticReport(w io.Writer) error {
	rs, err := s.RunAll()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Static instrumentation (ops inserted / routines instrumented / hashed / attributed paths)\n")
	fmt.Fprintf(w, "%-10s %22s %22s %22s\n", "bench", "PP", "TPP", "PPP")
	totals := map[string]int{}
	for _, r := range rs {
		fmt.Fprintf(w, "%-10s", r.W.Name)
		for _, p := range []string{"PP", "TPP", "PPP"} {
			pr := r.Profilers[p]
			ops, instrd, attr := 0, 0, 0
			for _, plan := range pr.Plans {
				ops += plan.StaticOps()
				if plan.Instrumented {
					instrd++
				}
				attr += len(plan.Attr)
			}
			totals[p] += ops
			fmt.Fprintf(w, " %7d/%3d/%2d/%4d", ops, instrd, pr.HashedRoutines, attr)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-10s", "total ops")
	for _, p := range []string{"PP", "TPP", "PPP"} {
		fmt.Fprintf(w, " %22d", totals[p])
	}
	fmt.Fprintln(w)
	return nil
}

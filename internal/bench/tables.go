package bench

import (
	"fmt"
	"io"

	"pathprof/internal/core"
	"pathprof/internal/opt"
)

// Table1 prints dynamic path characteristics with and without
// inlining and unrolling, per the paper's Table 1.
func (s *Suite) Table1(w io.Writer) error {
	rs, err := s.RunAll()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Table 1: dynamic path characteristics (original vs inlined+unrolled)\n")
	fmt.Fprintf(w, "%-10s %10s %8s %8s %10s %8s %8s %8s %7s %8s\n",
		"bench", "paths(K)", "branch", "instrs", "paths(K)", "branch", "instrs", "%inl", "unroll", "speedup")
	print := func(rows []*WorkloadResult, label string, showRows bool) {
		var oB, oI, nB, nI, inl, unr, spd []float64
		var oP, nP float64
		for _, r := range rows {
			avgUnroll := opt.AvgUnrollFactor(r.Staged.UnrollDecisions)
			if showRows {
				fmt.Fprintf(w, "%-10s %10.1f %8.2f %8.2f %10.1f %8.2f %8.2f %7.0f%% %7.2f %8.2f\n",
					r.W.Name,
					float64(r.Orig.DynPaths)/1000, r.Orig.AvgBranches, r.Orig.AvgInstrs,
					float64(r.Opt.DynPaths)/1000, r.Opt.AvgBranches, r.Opt.AvgInstrs,
					100*r.Staged.PctCallsInlined(), avgUnroll, r.Staged.Speedup())
			}
			oP += float64(r.Orig.DynPaths) / 1000
			nP += float64(r.Opt.DynPaths) / 1000
			oB = append(oB, r.Orig.AvgBranches)
			oI = append(oI, r.Orig.AvgInstrs)
			nB = append(nB, r.Opt.AvgBranches)
			nI = append(nI, r.Opt.AvgInstrs)
			inl = append(inl, r.Staged.PctCallsInlined())
			unr = append(unr, avgUnroll)
			spd = append(spd, r.Staged.Speedup())
		}
		fmt.Fprintf(w, "%-10s %10.1f %8.2f %8.2f %10.1f %8.2f %8.2f %7.0f%% %7.2f %8.2f\n",
			label, oP/float64(len(rows)), mean(oB), mean(oI),
			nP/float64(len(rows)), mean(nB), mean(nI),
			100*mean(inl), mean(unr), mean(spd))
	}
	ints, fps := classRows(rs)
	print(ints, "INT avg", true)
	print(fps, "FP avg", true)
	print(rs, "ALL avg", false)
	return nil
}

// Table2 prints distinct paths and hot-path statistics at the 0.125%
// and 1% thresholds, per the paper's Table 2.
func (s *Suite) Table2(w io.Writer) error {
	rs, err := s.RunAll()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Table 2: hot paths (thresholds 0.125%% and 1%% of total branch flow)\n")
	fmt.Fprintf(w, "%-10s %9s %9s %9s %9s %9s\n",
		"bench", "distinct", "hot.125", "flow.125", "hot1", "flow1")
	print := func(rows []*WorkloadResult, label string, showRows bool) {
		var f125, f1 []float64
		for _, r := range rows {
			e := r.Profilers["PP"].Eval
			n125, s125 := e.HotStats(0.00125)
			n1, s1 := e.HotStats(0.01)
			if showRows {
				fmt.Fprintf(w, "%-10s %9d %9d %8.1f%% %9d %8.1f%%\n",
					r.W.Name, e.DistinctPaths(), n125, 100*s125, n1, 100*s1)
			}
			f125 = append(f125, s125)
			f1 = append(f1, s1)
		}
		fmt.Fprintf(w, "%-10s %9s %9s %8.1f%% %9s %8.1f%%\n",
			label, "", "", 100*mean(f125), "", 100*mean(f1))
	}
	ints, fps := classRows(rs)
	print(ints, "INT avg", true)
	print(fps, "FP avg", true)
	print(rs, "ALL avg", false)
	return nil
}

// Figure9 prints hot-path prediction accuracy for edge profiling,
// TPP, and PPP.
func (s *Suite) Figure9(w io.Writer) error {
	rs, err := s.RunAll()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 9: accuracy (fraction of hot path flow predicted)\n")
	fmt.Fprintf(w, "%-10s %8s %8s %8s\n", "bench", "edge", "TPP", "PPP")
	print := func(rows []*WorkloadResult, label string, showRows bool) {
		var es, ts, ps []float64
		for _, r := range rows {
			e, t, p := r.Accuracy()
			if showRows {
				fmt.Fprintf(w, "%-10s %7.1f%% %7.1f%% %7.1f%%\n", r.W.Name, 100*e, 100*t, 100*p)
			}
			es, ts, ps = append(es, e), append(ts, t), append(ps, p)
		}
		fmt.Fprintf(w, "%-10s %7.1f%% %7.1f%% %7.1f%%\n", label, 100*mean(es), 100*mean(ts), 100*mean(ps))
	}
	ints, fps := classRows(rs)
	print(ints, "INT avg", true)
	print(fps, "FP avg", true)
	print(rs, "ALL avg", false)
	return nil
}

// Figure10 prints coverage for edge profiling, TPP, and PPP.
func (s *Suite) Figure10(w io.Writer) error {
	rs, err := s.RunAll()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 10: coverage (fraction of path profile definitely measured)\n")
	fmt.Fprintf(w, "%-10s %8s %8s %8s\n", "bench", "edge", "TPP", "PPP")
	print := func(rows []*WorkloadResult, label string, showRows bool) {
		var es, ts, ps []float64
		for _, r := range rows {
			e, t, p := r.Coverage()
			if showRows {
				fmt.Fprintf(w, "%-10s %7.1f%% %7.1f%% %7.1f%%\n", r.W.Name, 100*e, 100*t, 100*p)
			}
			es, ts, ps = append(es, e), append(ts, t), append(ps, p)
		}
		fmt.Fprintf(w, "%-10s %7.1f%% %7.1f%% %7.1f%%\n", label, 100*mean(es), 100*mean(ts), 100*mean(ps))
	}
	ints, fps := classRows(rs)
	print(ints, "INT avg", true)
	print(fps, "FP avg", true)
	print(rs, "ALL avg", false)
	return nil
}

// Figure11 prints the fraction of dynamic paths each profiler
// instruments, with the hashed portion broken out.
func (s *Suite) Figure11(w io.Writer) error {
	rs, err := s.RunAll()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 11: fraction of dynamic paths instrumented (hashed portion in parens)\n")
	fmt.Fprintf(w, "%-10s %16s %16s %16s\n", "bench", "PP", "TPP", "PPP")
	print := func(rows []*WorkloadResult, label string, showRows bool) {
		sums := map[string][]float64{}
		for _, r := range rows {
			if showRows {
				fmt.Fprintf(w, "%-10s", r.W.Name)
			}
			for _, p := range []string{"PP", "TPP", "PPP"} {
				f := r.Profilers[p].Eval.InstrumentedFraction()
				if showRows {
					fmt.Fprintf(w, " %7.1f%% (%4.1f%%)", 100*f.Total(), 100*f.Hash)
				}
				sums[p] = append(sums[p], f.Total())
			}
			if showRows {
				fmt.Fprintln(w)
			}
		}
		fmt.Fprintf(w, "%-10s", label)
		for _, p := range []string{"PP", "TPP", "PPP"} {
			fmt.Fprintf(w, " %7.1f%% %7s", 100*mean(sums[p]), "")
		}
		fmt.Fprintln(w)
	}
	ints, fps := classRows(rs)
	print(ints, "INT avg", true)
	print(fps, "FP avg", true)
	print(rs, "ALL avg", false)
	return nil
}

// Figure12 prints runtime overheads of PP, TPP, and PPP.
func (s *Suite) Figure12(w io.Writer) error {
	rs, err := s.RunAll()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 12: runtime overhead of path profiling\n")
	fmt.Fprintf(w, "%-10s %8s %8s %8s\n", "bench", "PP", "TPP", "PPP")
	print := func(rows []*WorkloadResult, label string, showRows bool) {
		var pp, tpp, ppp []float64
		for _, r := range rows {
			a := r.Profilers["PP"].Overhead()
			b := r.Profilers["TPP"].Overhead()
			c := r.Profilers["PPP"].Overhead()
			if showRows {
				fmt.Fprintf(w, "%-10s %7.1f%% %7.1f%% %7.1f%%\n", r.W.Name, 100*a, 100*b, 100*c)
			}
			pp, tpp, ppp = append(pp, a), append(tpp, b), append(ppp, c)
		}
		fmt.Fprintf(w, "%-10s %7.1f%% %7.1f%% %7.1f%%\n", label, 100*mean(pp), 100*mean(tpp), 100*mean(ppp))
	}
	ints, fps := classRows(rs)
	print(ints, "INT avg", true)
	print(fps, "FP avg", true)
	print(rs, "ALL avg", false)
	return nil
}

// Figure13 prints the leave-one-out ablation for the workloads where
// PPP improves on TPP by more than 5% of program runtime, with each
// variant's overhead normalized to TPP's, per the paper's Figure 13.
func (s *Suite) Figure13(w io.Writer) error {
	rs, err := s.RunAll()
	if err != nil {
		return err
	}
	techniques := sortedNames(core.Ablations())
	// The paper's inclusion rule is "PPP improves more than 5% of
	// program runtime over TPP"; our overheads run at about half
	// the paper's absolute scale, so the proportional cut is ~3
	// points of runtime.
	var rows []*WorkloadResult
	for _, r := range rs {
		if r.Profilers["TPP"].Overhead()-r.Profilers["PPP"].Overhead() > 0.03 {
			rows = append(rows, r)
		}
	}
	// Prefetch the whole (workload, technique) sweep on the worker
	// pool; rendering below reads the cache sequentially, so the
	// table stays deterministic.
	type cell struct {
		name, tech string
	}
	var cells []cell
	for _, r := range rows {
		for _, t := range techniques {
			cells = append(cells, cell{r.W.Name, t})
		}
	}
	errs := make([]error, len(cells))
	s.forEach(len(cells), func(i int) {
		_, errs[i] = s.Ablate(cells[i].name, cells[i].tech)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	fmt.Fprintf(w, "Figure 13: leave-one-out, overhead normalized to TPP (lower is better)\n")
	fmt.Fprintf(w, "%-10s %8s", "bench", "PPP")
	for _, t := range techniques {
		fmt.Fprintf(w, " %8s", "-"+t)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		tpp := r.Profilers["TPP"].Overhead()
		norm := func(x float64) float64 {
			if tpp == 0 {
				return 1
			}
			return x / tpp
		}
		fmt.Fprintf(w, "%-10s %8.2f", r.W.Name, norm(r.Profilers["PPP"].Overhead()))
		for _, t := range techniques {
			pr, err := s.Ablate(r.W.Name, t)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, " %8.2f", norm(pr.Overhead()))
		}
		fmt.Fprintln(w)
	}
	return nil
}

// SACReport verifies the Section 4.3 claim: the self-adjusting
// criterion engages for few routines and converges in few iterations.
func (s *Suite) SACReport(w io.Writer) error {
	rs, err := s.RunAll()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Section 4.3: self-adjusting criterion activity under PPP\n")
	total, maxIter := 0, 0
	for _, r := range rs {
		pr := r.Profilers["PPP"]
		if pr.SACAdjusted > 0 {
			fmt.Fprintf(w, "%-10s adjusted %d routine(s), max %d iteration(s)\n",
				r.W.Name, pr.SACAdjusted, pr.MaxSACIterations)
			total += pr.SACAdjusted
			if pr.MaxSACIterations > maxIter {
				maxIter = pr.MaxSACIterations
			}
		}
	}
	fmt.Fprintf(w, "total: %d routine(s) adjusted, max %d iteration(s)\n", total, maxIter)
	return nil
}

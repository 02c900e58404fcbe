package telemetry

// VMMetrics bundles the VM hot-loop counters. Constructing it
// registers the metric catalog's ppp_vm_* family; Cells hands one
// worker's private view to a VM run. Registration is idempotent
// (Registry constructors dedupe by name), so several runs — or a
// RunReplicated fan-out — share the same counters.
type VMMetrics struct {
	Transitions *Counter
	Ops         *Counter
	TableIncs   *Counter
	ColdBumps   *Counter
	Paths       *Counter
	PathLen     *Histogram
}

// NewVMMetrics registers the VM hot-loop metrics in r. A nil registry
// yields a nil *VMMetrics, which is the nil-sink fast path end to end.
func NewVMMetrics(r *Registry) *VMMetrics {
	if r == nil {
		return nil
	}
	return &VMMetrics{
		Transitions: r.Counter("ppp_vm_transitions_total", "control-flow transitions executed"),
		Ops:         r.Counter("ppp_vm_instr_ops_total", "instrumentation operations executed"),
		TableIncs:   r.Counter("ppp_vm_table_incs_total", "path-counter table increments"),
		ColdBumps:   r.Counter("ppp_vm_cold_bumps_total", "poison-check diversions to the cold counter"),
		Paths:       r.Counter("ppp_vm_paths_total", "Ball-Larus paths completed"),
		PathLen:     r.Histogram("ppp_vm_path_len", "completed path length in DAG edges", []int64{1, 2, 4, 8, 16, 32, 64}),
	}
}

// VMCells is one worker's view of VMMetrics: plain padded cells the
// executor bumps with single-threaded stores. The zero VMCells
// (every field nil) is the no-op sink a run without telemetry uses —
// each bump then costs one predictable branch.
type VMCells struct {
	Transitions *Cell
	Ops         *Cell
	TableIncs   *Cell
	ColdBumps   *Cell
	Paths       *Cell
	PathLen     *HistCell
}

// Cells returns worker w's cells; a nil *VMMetrics returns the no-op
// zero VMCells.
func (m *VMMetrics) Cells(w int) VMCells {
	if m == nil {
		return VMCells{}
	}
	return VMCells{
		Transitions: m.Transitions.Cell(w),
		Ops:         m.Ops.Cell(w),
		TableIncs:   m.TableIncs.Cell(w),
		ColdBumps:   m.ColdBumps.Cell(w),
		Paths:       m.Paths.Cell(w),
		PathLen:     m.PathLen.Cell(w),
	}
}

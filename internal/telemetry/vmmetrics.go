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
	// TracesFormed and TracesRejected count the executor's hot-path
	// trace formations: validated and installed, or failed validation.
	TracesFormed   *Counter
	TracesRejected *Counter
	// TraceEntries and TraceExits count trace runs and the side exits
	// they end in, on metered runs.
	TraceEntries *Counter
	TraceExits   *Counter
}

// NewVMMetrics registers the VM hot-loop metrics in r. A nil registry
// yields a nil *VMMetrics, which is the nil-sink fast path end to end.
func NewVMMetrics(r *Registry) *VMMetrics {
	if r == nil {
		return nil
	}
	return &VMMetrics{
		Transitions:    r.Counter("ppp_vm_transitions_total", "control-flow transitions executed"),
		Ops:            r.Counter("ppp_vm_instr_ops_total", "instrumentation operations executed"),
		TableIncs:      r.Counter("ppp_vm_table_incs_total", "path-counter table increments"),
		ColdBumps:      r.Counter("ppp_vm_cold_bumps_total", "poison-check diversions to the cold counter"),
		Paths:          r.Counter("ppp_vm_paths_total", "Ball-Larus paths completed"),
		PathLen:        r.Histogram("ppp_vm_path_len", "completed path length in DAG edges", []int64{1, 2, 4, 8, 16, 32, 64}),
		TracesFormed:   r.Counter("ppp_vm_traces_formed_total", "hot-path traces validated and installed"),
		TracesRejected: r.Counter("ppp_vm_traces_rejected_total", "hot-path traces that failed validation"),
		TraceEntries:   r.Counter("ppp_vm_trace_entries_total", "hot-path trace runs entered"),
		TraceExits:     r.Counter("ppp_vm_trace_side_exits_total", "hot-path trace runs that left through a side exit"),
	}
}

// VMCells is one worker's view of VMMetrics: plain padded cells the
// executor bumps with single-threaded stores. The compiled executor
// adds most counts as compile-time constants, per transition or summed
// per trace, and only where it was compiled with telemetry; the zero
// VMCells (every field nil) is the no-op sink of an unmetered run,
// where the few data-dependent bumps left (table increments and cold
// bumps of the generic op stream, trace formations) each cost one
// predictable branch.
type VMCells struct {
	Transitions *Cell
	Ops         *Cell
	TableIncs   *Cell
	ColdBumps   *Cell
	Paths       *Cell
	PathLen     *HistCell
	// Trace formations are counted off the hot path, when a trace forms.
	TracesFormed   *Cell
	TracesRejected *Cell
	// Trace entries and side exits are counted at a trace's end or exit.
	TraceEntries *Cell
	TraceExits   *Cell
}

// Cells returns worker w's cells; a nil *VMMetrics returns the no-op
// zero VMCells.
func (m *VMMetrics) Cells(w int) VMCells {
	if m == nil {
		return VMCells{}
	}
	return VMCells{
		Transitions:    m.Transitions.Cell(w),
		Ops:            m.Ops.Cell(w),
		TableIncs:      m.TableIncs.Cell(w),
		ColdBumps:      m.ColdBumps.Cell(w),
		Paths:          m.Paths.Cell(w),
		PathLen:        m.PathLen.Cell(w),
		TracesFormed:   m.TracesFormed.Cell(w),
		TracesRejected: m.TracesRejected.Cell(w),
		TraceEntries:   m.TraceEntries.Cell(w),
		TraceExits:     m.TraceExits.Cell(w),
	}
}

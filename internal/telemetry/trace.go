package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
)

// EventKind classifies one planner or runtime decision.
type EventKind int

const (
	// EvLCSkip: the low-coverage criterion skipped a routine (PPP 4.1).
	EvLCSkip EventKind = iota
	// EvSkip: a routine got no instrumentation for a terminal reason
	// (too-many-paths, no-hot-paths).
	EvSkip
	// EvColdLocal: an edge went cold under TPP's local criterion.
	EvColdLocal
	// EvColdGlobal: an edge went cold under PPP's global criterion
	// (initial marking or an SAC re-mark).
	EvColdGlobal
	// EvSACRound: one self-adjusting-criterion iteration raised the
	// global threshold and renumbered (PPP 4.3).
	EvSACRound
	// EvObviousLoop: an obvious high-trip-count loop was disconnected;
	// its body paths are edge-attributed (Section 3.2).
	EvObviousLoop
	// EvObviousAttr: an obvious path's constant counter update was
	// removed in favour of edge attribution (Section 4.4), or a whole
	// routine was found all-obvious.
	EvObviousAttr
	// EvPushCombine: instrumentation pushing merged two operations into
	// one (Sections 3.1, 4.4).
	EvPushCombine
	// EvSPNOrder: smart path numbering ordered the numbering by
	// measured edge frequency (PPP 4.5).
	EvSPNOrder
	// EvFPColdRange: free poisoning assigned a cold edge a register
	// value landing counts in the cold range [N, TableSize) (PPP 4.6).
	EvFPColdRange
	// EvHashTable: the routine's path count forced a hash table.
	EvHashTable
	// EvModeDemote: the degraded-mode ladder dropped a routine to TPP
	// or edge-only at plan time.
	EvModeDemote
	// EvSaturate: runtime counter saturation demoted a routine to
	// edge-only after the run.
	EvSaturate
	// EvQuarantine: guarded replication quarantined a shard; its
	// replicas' flow left the merge.
	EvQuarantine
	// EvFaultInject: the deterministic fault injector fired at a site.
	EvFaultInject
	// EvPlacement: the min-cost probe planner chose an edge-probe set;
	// Flow carries the expected dynamic probe hits under the guide
	// profile.
	EvPlacement
	// EvProof: the all-paths verifier proved (or refuted) a routine's
	// plan; Flow carries the violation count.
	EvProof
	// EvValidate: translation validation checked a compiled routine
	// against its plan IR; Flow carries the violation count.
	EvValidate
	// EvShed: the profile service refused work under overload — a
	// read/plan request shed ahead of ingest, or ingest itself pushed
	// back when the bounded queue filled.
	EvShed
	// EvStoreFault: a durable store save failed (or tore), and the
	// batch it carried was not acknowledged; or a tenant's stored
	// aggregate could not be read, and the tenant was refused.
	EvStoreFault
	// EvDrift: the profile-drift monitor saw a tenant's live aggregate
	// diverge from the guide profile its served plans were built on
	// (or return inside the envelope). Flow carries the live flow
	// running under the stale guide.
	EvDrift
)

var eventKindNames = [...]string{
	EvLCSkip:      "lc-skip",
	EvSkip:        "skip",
	EvColdLocal:   "cold-local",
	EvColdGlobal:  "cold-global",
	EvSACRound:    "sac-round",
	EvObviousLoop: "obvious-loop",
	EvObviousAttr: "obvious-attr",
	EvPushCombine: "push-combine",
	EvSPNOrder:    "spn-order",
	EvFPColdRange: "fp-cold-range",
	EvHashTable:   "hash-table",
	EvModeDemote:  "mode-demote",
	EvSaturate:    "saturate",
	EvQuarantine:  "quarantine",
	EvFaultInject: "fault-inject",
	EvPlacement:   "placement",
	EvProof:       "proof",
	EvValidate:    "validate",
	EvShed:        "shed",
	EvStoreFault:  "store-fault",
	EvDrift:       "drift",
}

func (k EventKind) String() string {
	if k >= 0 && int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return "unknown"
}

// Lossy reports whether the decision gives up measured flow: the
// event's Flow is path executions the profile will not attribute
// exactly. Combining, numbering, poisoning, and attribution events
// reshape instrumentation without losing flow.
func (k EventKind) Lossy() bool {
	switch k {
	case EvLCSkip, EvSkip, EvColdLocal, EvColdGlobal, EvModeDemote, EvSaturate, EvQuarantine:
		return true
	}
	return false
}

// Event is one recorded decision: which unit and routine it concerns,
// an optional edge witness, and the flow at stake (dynamic executions
// the decision affects — lost flow for Lossy kinds, reshaped flow
// otherwise).
type Event struct {
	Seq     int64 // global emission order within one trace
	Unit    string
	Routine string
	Kind    EventKind
	Edge    string // witness edge, e.g. "b2->b4", when one exists
	Flow    int64
	Detail  string
}

// DefaultTraceCap bounds the ring when NewTrace is given 0.
const DefaultTraceCap = 1 << 16

// Trace is a bounded ring of decision events. Emission is
// mutex-protected (decisions are planner/report-rate, never VM
// hot-loop-rate) and a nil *Trace is a valid no-op sink, so emission
// sites need no installed-sink check of their own. Storage grows on
// demand up to the capacity.
type Trace struct {
	r ring[Event]
}

// NewTrace returns a trace holding at most capacity events
// (DefaultTraceCap when 0); the oldest events drop first.
func NewTrace(capacity int) *Trace {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &Trace{r: ring[Event]{capacity: capacity}}
}

// Emit records an event, assigning its sequence number. Nil-safe.
func (t *Trace) Emit(e Event) {
	if t == nil {
		return
	}
	t.r.emit(&e, &e.Seq)
}

// Len returns the number of retained events.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	return t.r.len()
}

// Stats returns total emitted and dropped event counts.
func (t *Trace) Stats() (emitted, dropped int64) {
	if t == nil {
		return 0, 0
	}
	return t.r.stats()
}

// Snapshot copies the retained events in emission order.
func (t *Trace) Snapshot() []Event {
	if t == nil {
		return nil
	}
	return t.r.snapshot()
}

// sortedSnapshot orders events by (Unit, Routine, Seq). Concurrent
// emitters interleave global sequence numbers nondeterministically,
// but each (unit, routine) subsequence comes from one goroutine's
// deterministic decision order, so this sort — with Seq excluded from
// the export — makes two identical runs export byte-identical traces
// at any parallelism.
//
//ppp:deterministic
func (t *Trace) sortedSnapshot() []Event {
	evs := t.Snapshot()
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].Unit != evs[j].Unit {
			return evs[i].Unit < evs[j].Unit
		}
		if evs[i].Routine != evs[j].Routine {
			return evs[i].Routine < evs[j].Routine
		}
		return evs[i].Seq < evs[j].Seq
	})
	return evs
}

// jsonEvent is the deterministic JSONL shape: Seq is deliberately
// excluded (see sortedSnapshot).
type jsonEvent struct {
	Unit    string `json:"unit"`
	Routine string `json:"routine"`
	Kind    string `json:"kind"`
	Edge    string `json:"edge,omitempty"`
	Flow    int64  `json:"flow"`
	Detail  string `json:"detail,omitempty"`
}

// WriteJSONL exports the trace as JSON lines, deterministically: two
// identical runs produce byte-identical output. Nil-safe (writes
// nothing).
//
//ppp:deterministic
func (t *Trace) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range t.sortedSnapshot() {
		je := jsonEvent{
			Unit: e.Unit, Routine: e.Routine, Kind: e.Kind.String(),
			Edge: e.Edge, Flow: e.Flow, Detail: e.Detail,
		}
		if err := enc.Encode(je); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// chromeEvent is one Chrome trace_event record. Timestamps are sorted
// ranks, not wall clock: the viewer shows decision order, and the
// export stays deterministic.
type chromeEvent struct {
	Name string     `json:"name"`
	Cat  string     `json:"cat,omitempty"`
	Ph   string     `json:"ph"`
	Ts   int64      `json:"ts"`
	Dur  int64      `json:"dur,omitempty"`
	Pid  int        `json:"pid"`
	Tid  int        `json:"tid"`
	Args chromeArgs `json:"args,omitempty"`
}

type chromeArgs struct {
	Name    string `json:"name,omitempty"`
	Routine string `json:"routine,omitempty"`
	Edge    string `json:"edge,omitempty"`
	Flow    int64  `json:"flow,omitempty"`
	Detail  string `json:"detail,omitempty"`
	Trace   string `json:"trace,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	Status  int    `json:"status,omitempty"`
}

// chromeTraceEvents renders decision events as Chrome trace_event
// records: units map to processes, routines to threads, timestamps to
// deterministic sorted ranks. It returns the records plus the number
// of process IDs and timestamps consumed, so span records can follow
// without colliding.
//
//ppp:deterministic
func (t *Trace) chromeTraceEvents() (out []chromeEvent, pidsUsed, tsUsed int) {
	if t == nil {
		return nil, 0, 0
	}
	evs := t.sortedSnapshot()
	pids := map[string]int{}
	tids := map[string]int{}
	for i, e := range evs {
		pid, ok := pids[e.Unit]
		if !ok {
			pid = len(pids) + 1
			pids[e.Unit] = pid
			out = append(out, chromeEvent{
				Name: "process_name", Ph: "M", Pid: pid,
				Args: chromeArgs{Name: e.Unit},
			})
		}
		tkey := e.Unit + "\x00" + e.Routine
		tid, ok := tids[tkey]
		if !ok {
			tid = len(tids) + 1
			tids[tkey] = tid
			out = append(out, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
				Args: chromeArgs{Name: e.Routine},
			})
		}
		out = append(out, chromeEvent{
			Name: e.Kind.String(), Cat: "ppp", Ph: "X",
			Ts: int64(i), Dur: 1, Pid: pid, Tid: tid,
			Args: chromeArgs{Routine: e.Routine, Edge: e.Edge, Flow: e.Flow, Detail: e.Detail},
		})
	}
	return out, len(pids), len(evs)
}

// WriteChrome exports the trace as Chrome trace_event JSON (load via
// chrome://tracing or Perfetto). Units map to processes and routines
// to threads; event timestamps are the deterministic sorted ranks.
//
//ppp:deterministic
func (t *Trace) WriteChrome(w io.Writer) error {
	return WriteChromeTrace(w, t, nil)
}

// WriteChromeTrace exports decision events and request spans into one
// Chrome trace_event document: decision units first, span processes
// after them, all timestamps deterministic ranks. Either input may be
// nil.
//
//ppp:deterministic
func WriteChromeTrace(w io.Writer, t *Trace, spans *SpanRing) error {
	var out struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	evs, pidsUsed, tsUsed := t.chromeTraceEvents()
	out.TraceEvents = evs
	out.TraceEvents = append(out.TraceEvents, spans.chromeSpanEvents(pidsUsed, tsUsed)...)
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(&out); err != nil {
		return err
	}
	return bw.Flush()
}

// TopLoss returns the unit's flow-losing decision with the most flow
// at stake (earliest emission wins ties), and whether one exists. This
// is the "why" a report shows for a unit whose profile is not exact.
func (t *Trace) TopLoss(unit string) (Event, bool) {
	if t == nil {
		return Event{}, false
	}
	var best Event
	found := false
	t.r.each(func(e *Event) {
		if e.Unit != unit || !e.Kind.Lossy() {
			return
		}
		if !found || e.Flow > best.Flow || (e.Flow == best.Flow && e.Seq < best.Seq) {
			best = *e
			found = true
		}
	})
	return best, found
}

package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
)

// SpanStage names one stage of the profile service's ingest
// lifecycle. Stages are ordered: sorting a trace's spans by stage rank
// reconstructs the request's journey from client send to ack.
type SpanStage int

const (
	// StageClientSend: one client publish attempt (serve.Client).
	StageClientSend SpanStage = iota
	// StageAdmit: HTTP admission — body read, decode, quarantine check.
	StageAdmit
	// StageQueueWait: time spent in the bounded ingest queue.
	StageQueueWait
	// StageCommitMerge: the committer folding the batch into the
	// aggregate clone.
	StageCommitMerge
	// StageStoreSave: the durable log append that makes the batch
	// ackable.
	StageStoreSave
	// StageAck: end-to-end admission-to-ack, the latency a client
	// observes server-side.
	StageAck
)

var spanStageNames = [...]string{
	StageClientSend:  "client-send",
	StageAdmit:       "admit",
	StageQueueWait:   "queue-wait",
	StageCommitMerge: "commit-merge",
	StageStoreSave:   "store-save",
	StageAck:         "ack",
}

func (s SpanStage) String() string {
	if s >= 0 && int(s) < len(spanStageNames) {
		return spanStageNames[s]
	}
	return "unknown"
}

// Span is one request-scoped lifecycle record: which trace it belongs
// to, which stage it measures, and the measured duration. One trace ID
// stitches a client's retry attempts to the committer's batch work.
//
// DurUS and Seq are live-only observability: the deterministic JSONL
// and Chrome exports exclude both (durations differ across reruns,
// sequence numbers across interleavings), so two identically-seeded
// runs export byte-identical span streams at any worker count. Timing
// lives in the stage latency histograms and the live dashboard.
type Span struct {
	Seq     int64 // global emission order within one ring
	Trace   string
	Tenant  string
	Stage   SpanStage
	Attempt int
	Status  int   // HTTP status of the stage outcome; 0 = in-band ok
	DurUS   int64 // measured stage duration, microseconds (live-only)
	Detail  string
}

// DefaultSpanCap bounds the ring when NewSpanRing is given 0.
const DefaultSpanCap = 1 << 14

// SpanRing is a bounded ring of request spans, the Span sibling of the
// decision-trace ring: emission is mutex-protected, the storage is
// fully preallocated so Emit never allocates, and a nil *SpanRing is a
// valid no-op sink.
type SpanRing struct {
	r ring[Span]
}

// NewSpanRing returns a ring holding at most capacity spans
// (DefaultSpanCap when 0); the oldest spans drop first. The backing
// array is allocated up front so the emission path never grows it.
func NewSpanRing(capacity int) *SpanRing {
	if capacity <= 0 {
		capacity = DefaultSpanCap
	}
	return &SpanRing{r: ring[Span]{capacity: capacity, items: make([]Span, 0, capacity)}}
}

// Emit records a span, assigning its sequence number. Nil-safe and
// allocation-free: the span struct is copied into preallocated ring
// storage under the ring mutex (tests assert 0 allocs/op).
func (r *SpanRing) Emit(sp Span) {
	if r == nil {
		return
	}
	r.r.emit(&sp, &sp.Seq)
}

// Len returns the number of retained spans.
func (r *SpanRing) Len() int {
	if r == nil {
		return 0
	}
	return r.r.len()
}

// Stats returns total emitted and dropped span counts.
func (r *SpanRing) Stats() (emitted, dropped int64) {
	if r == nil {
		return 0, 0
	}
	return r.r.stats()
}

// Snapshot copies the retained spans in emission order.
func (r *SpanRing) Snapshot() []Span {
	if r == nil {
		return nil
	}
	return r.r.snapshot()
}

// sortedSnapshot orders spans by (Trace, Stage, Attempt, Status,
// Detail, Seq). Concurrent emitters interleave sequence numbers
// nondeterministically, but a trace's spans carry deterministic
// content, so this sort — with Seq and DurUS excluded from the export
// — makes two identical runs export byte-identical span streams at
// any parallelism.
//
//ppp:deterministic
func (r *SpanRing) sortedSnapshot() []Span {
	sps := r.Snapshot()
	sort.SliceStable(sps, func(i, j int) bool {
		a, b := &sps[i], &sps[j]
		if a.Trace != b.Trace {
			return a.Trace < b.Trace
		}
		if a.Stage != b.Stage {
			return a.Stage < b.Stage
		}
		if a.Attempt != b.Attempt {
			return a.Attempt < b.Attempt
		}
		if a.Status != b.Status {
			return a.Status < b.Status
		}
		if a.Detail != b.Detail {
			return a.Detail < b.Detail
		}
		return a.Seq < b.Seq
	})
	return sps
}

// jsonSpan is the deterministic JSONL shape: Seq and DurUS are
// deliberately excluded (see sortedSnapshot).
type jsonSpan struct {
	Trace   string `json:"trace"`
	Tenant  string `json:"tenant"`
	Stage   string `json:"stage"`
	Attempt int    `json:"attempt"`
	Status  int    `json:"status"`
	Detail  string `json:"detail,omitempty"`
}

// WriteJSONL exports the spans as JSON lines, deterministically: two
// identically-seeded runs produce byte-identical output regardless of
// worker count. Nil-safe (writes nothing).
//
//ppp:deterministic
func (r *SpanRing) WriteJSONL(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, sp := range r.sortedSnapshot() {
		js := jsonSpan{
			Trace: sp.Trace, Tenant: sp.Tenant, Stage: sp.Stage.String(),
			Attempt: sp.Attempt, Status: sp.Status, Detail: sp.Detail,
		}
		if err := enc.Encode(js); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// chromeSpanEvents renders spans as Chrome trace_event records:
// tenants map to processes ("span:<tenant>") and trace IDs to
// threads, so one trace's stages line up on one row. Timestamps are
// deterministic sorted ranks offset by tsBase; pids start after
// pidBase so span processes never collide with decision-trace units.
//
//ppp:deterministic
func (r *SpanRing) chromeSpanEvents(pidBase, tsBase int) []chromeEvent {
	if r == nil {
		return nil
	}
	sps := r.sortedSnapshot()
	pids := map[string]int{}
	tids := map[string]int{}
	var out []chromeEvent
	for i, sp := range sps {
		pname := "span:" + sp.Tenant
		pid, ok := pids[pname]
		if !ok {
			pid = pidBase + len(pids) + 1
			pids[pname] = pid
			out = append(out, chromeEvent{
				Name: "process_name", Ph: "M", Pid: pid,
				Args: chromeArgs{Name: pname},
			})
		}
		tkey := pname + "\x00" + sp.Trace
		tid, ok := tids[tkey]
		if !ok {
			tid = len(tids) + 1
			tids[tkey] = tid
			out = append(out, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
				Args: chromeArgs{Name: sp.Trace},
			})
		}
		out = append(out, chromeEvent{
			Name: sp.Stage.String(), Cat: "ppp-span", Ph: "X",
			Ts: int64(tsBase + i), Dur: 1, Pid: pid, Tid: tid,
			Args: chromeArgs{
				Trace: sp.Trace, Detail: sp.Detail,
				Attempt: sp.Attempt, Status: sp.Status,
			},
		})
	}
	return out
}

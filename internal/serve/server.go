package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pathprof/internal/core"
	"pathprof/internal/drift"
	"pathprof/internal/faultinject"
	"pathprof/internal/profile"
	"pathprof/internal/snapshot"
	"pathprof/internal/telemetry"
)

// Config tunes the service's robustness envelope. The zero value is
// usable; New fills defaults.
type Config struct {
	// Store is where acked commits become durable. Required.
	Store Store
	// QueueDepth bounds the ingest queue; a full queue answers 429.
	// Default 256.
	QueueDepth int
	// BatchMax caps how many queued snapshots one commit folds; a
	// deeper queue stretches the log-append cadence up to this, so one
	// fsync amortizes over more acks. Default 64.
	BatchMax int
	// MaxSnapshotBytes caps an ingest body; larger requests are
	// quarantined with 413. Default 8 MiB.
	MaxSnapshotBytes int64
	// RequestTimeout bounds how long an ingest waits for its commit
	// before answering 503 (the commit may still land; the client's
	// retry is deduplicated). Default 10s.
	RequestTimeout time.Duration
	// ShedThreshold is the queue fill ratio at which read and plan
	// traffic sheds with 503 so ingest keeps its headroom. Default
	// 0.75.
	ShedThreshold float64
	// RetryAfter is the hint attached to 429/503 responses. Default 1s.
	RetryAfter time.Duration
	// StallTime is how long an injected netstall delays a response.
	// Default 250ms.
	StallTime time.Duration
	// Registry receives ingest/merge/shed/quarantine metrics and
	// decision-trace events; nil keeps every sink on its no-op path.
	Registry *telemetry.Registry
	// Inject drives deterministic network/store chaos (conndrop,
	// netstall, partialwrite, storefail); nil injects nothing. Store
	// faults apply only when Store is not already a FaultStore.
	Inject *faultinject.Injector
	// Program resolves a tenant to mini-C source for the plan-serving
	// endpoint; nil or !ok disables plan serving for that tenant.
	Program func(tenant string) (string, bool)
	// AccessLog receives one structured line per HTTP request (tenant,
	// endpoint, status, duration, trace ID, retry attempt); nil
	// disables access logging.
	AccessLog io.Writer
	// Drift tunes the profile-drift monitor; the zero value uses the
	// package defaults.
	Drift drift.Options
}

func (c *Config) fill() {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.BatchMax <= 0 {
		c.BatchMax = 64
	}
	if c.MaxSnapshotBytes <= 0 {
		c.MaxSnapshotBytes = 8 << 20
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.ShedThreshold <= 0 || c.ShedThreshold > 1 {
		c.ShedThreshold = 0.75
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.StallTime <= 0 {
		c.StallTime = 250 * time.Millisecond
	}
}

// Ack is the server's acknowledgement of one ingested snapshot: its
// commit sequence within the tenant (the fold order, which the
// acked-implies-durable drill replays) and the aggregate fingerprint
// after the commit that included it.
type Ack struct {
	Tenant      string `json:"tenant"`
	Seq         uint64 `json:"seq"`
	Fingerprint string `json:"fingerprint"`
	Deduped     bool   `json:"deduped,omitempty"`
}

// LogEntry records one committed ingest in fold order.
type LogEntry struct {
	Seq uint64 `json:"seq"`
	Key string `json:"key"`
}

// TenantInfo is the JSON shape of a tenant's aggregate summary.
type TenantInfo struct {
	Tenant      string   `json:"tenant"`
	Fingerprint string   `json:"fingerprint"`
	Acked       uint64   `json:"acked"`
	Bytes       int      `json:"bytes"`
	Routines    int      `json:"routines"`
	Saturated   []string `json:"saturated,omitempty"`
}

// tenant is one program's aggregate and its commit bookkeeping. All
// mutable fields are guarded by Server.mu; only the committer
// goroutine writes them after creation.
type tenant struct {
	name    string
	cur     *version // nil until the first commit or a recovered aggregate
	nextSeq uint64
	seqs    map[string]uint64
	log     []LogEntry

	// logged counts the log bytes appended since the last checkpoint,
	// and ckptBytes that checkpoint's size (0 when this process has
	// not written one, so a recovered tenant's first commit folds the
	// replayed log into a fresh checkpoint).
	logged, ckptBytes int64

	stageOnce sync.Once
	staged    *core.Staged
	stageErr  error
}

// version is one committed aggregate. It is immutable once published;
// its canonical PPSNAP encoding is made once, on first read (or by the
// checkpoint that needs it), so acks never wait on it.
type version struct {
	agg  *profile.Snapshot
	fp   uint64
	once sync.Once
	data []byte
}

// encoded returns v's PPSNAP bytes, encoding them on first use.
func (s *Server) encoded(v *version) []byte {
	v.once.Do(func() {
		start := time.Now()
		v.data = snapshot.Encode(v.agg)
		s.met.observeHist(s.met.encode, time.Since(start).Microseconds())
	})
	return v.data
}

// ingestItem is one queued snapshot awaiting commit. traceID and
// attempt ride along so the committer's spans stitch to the client's;
// admitAt/enqueueAt anchor the ack-e2e and queue-wait measurements.
type ingestItem struct {
	tenant, key string
	up          *snapshot.Upload // data, validated; what the committer folds
	data        []byte           // the bytes as received; what the log record holds
	done        chan ackResult

	traceID   string
	attempt   int
	admitAt   time.Time
	enqueueAt time.Time
}

type ackResult struct {
	ack  Ack
	code int
	err  error
}

// Server is the profile service. Construct with New, start the
// committer with Start, and stop with Shutdown.
type Server struct {
	cfg   Config
	queue chan *ingestItem
	quit  chan struct{}
	done  chan struct{}

	draining atomic.Bool
	started  atomic.Bool
	quitOnce sync.Once

	mu      sync.Mutex
	tenants map[string]*tenant
	loads   map[string]*tenantLoad // first touches in flight

	rec []byte // the committer's log-record buffer, reused per commit

	met   serveMetrics
	trace *telemetry.Trace
	spans *telemetry.SpanRing
	drift *drift.Monitor

	redMu sync.Mutex
	red   map[string]*redSeries
}

// redSeries is one endpoint's RED triple: request count, error count,
// duration distribution.
type redSeries struct {
	requests, errors *telemetry.Cell
	dur              *telemetry.HistCell
}

// serveMetrics holds the service's telemetry cells. Cells are
// single-writer by contract, and the server's writers are many HTTP
// handler goroutines plus the committer, so every bump serializes
// through one mutex — these are request-rate counters, nowhere near a
// hot loop.
type serveMetrics struct {
	mu sync.Mutex

	ingest, acked, deduped, quarantined *telemetry.Cell
	backpressure, shed, waitTimeout     *telemetry.Cell
	saves, saveErrs, batches, merged    *telemetry.Cell
	ckptErrs                            *telemetry.Cell

	queueDepth, tenants *telemetry.Gauge
	batchSize           *telemetry.HistCell

	queueWait, commitMerge *telemetry.HistCell
	storeSave, ackE2E      *telemetry.HistCell
	fingerprint, ckpt      *telemetry.HistCell
	encode                 *telemetry.HistCell
}

func (m *serveMetrics) bump(c *telemetry.Cell) {
	m.mu.Lock()
	c.Inc()
	m.mu.Unlock()
}

func (m *serveMetrics) observeBatch(n int) {
	m.mu.Lock()
	m.batchSize.Observe(int64(n))
	m.mu.Unlock()
}

// observeHist records one value into a stage or endpoint histogram
// under the metrics mutex (same single-writer discipline as bump).
func (m *serveMetrics) observeHist(h *telemetry.HistCell, v int64) {
	m.mu.Lock()
	h.Observe(v)
	m.mu.Unlock()
}

// usBounds is the shared microsecond bucket layout for the stage and
// endpoint latency histograms: 50µs to 5s.
var usBounds = []int64{
	50, 100, 250, 500,
	1_000, 2_500, 5_000, 10_000, 25_000, 50_000,
	100_000, 250_000, 500_000,
	1_000_000, 2_500_000, 5_000_000,
}

// New builds a Server. cfg.Store is required; everything else
// defaults sanely. When cfg.Inject carries store-fault kinds and the
// store is not already fault-wrapped, New wraps it so partialwrite/
// storefail drills need no extra wiring.
func New(cfg Config) (*Server, error) {
	cfg.fill()
	if cfg.Store == nil {
		return nil, fmt.Errorf("serve: Config.Store is required")
	}
	if _, wrapped := cfg.Store.(*FaultStore); !wrapped &&
		(cfg.Inject.Active(faultinject.StoreFail) || cfg.Inject.Active(faultinject.PartialWrite)) {
		cfg.Store = NewFaultStore(cfg.Store, cfg.Inject)
	}
	s := &Server{
		cfg:     cfg,
		queue:   make(chan *ingestItem, cfg.QueueDepth),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
		tenants: map[string]*tenant{},
		loads:   map[string]*tenantLoad{},
		red:     map[string]*redSeries{},
	}
	reg := cfg.Registry
	c := func(name, help string) *telemetry.Cell { return reg.Counter(name, help).Cell(0) }
	s.met.ingest = c("ppp_serve_ingest_requests_total", "snapshots POSTed (accepted into the pipeline or rejected)")
	s.met.acked = c("ppp_serve_ingest_acked_total", "snapshots acknowledged after a durable commit")
	s.met.deduped = c("ppp_serve_ingest_deduped_total", "retried snapshots answered from the idempotency log")
	s.met.quarantined = c("ppp_serve_ingest_quarantined_total", "corrupt or oversized snapshots quarantined")
	s.met.backpressure = c("ppp_serve_backpressure_total", "ingests refused with 429 because the queue was full")
	s.met.shed = c("ppp_serve_shed_total", "read/plan requests shed with 503 under overload")
	s.met.waitTimeout = c("ppp_serve_ingest_wait_timeouts_total", "ingests that timed out waiting for their commit")
	s.met.saves = c("ppp_serve_store_saves_total", "durable log appends attempted, one per group commit")
	s.met.saveErrs = c("ppp_serve_store_save_errors_total", "durable log appends that failed (batch not acked)")
	s.met.ckptErrs = c("ppp_serve_checkpoint_errors_total", "checkpoints that failed after their batch was acked (retried on a later commit)")
	s.met.batches = c("ppp_serve_commit_batches_total", "group commits executed")
	s.met.merged = c("ppp_serve_commit_snapshots_total", "snapshots folded into aggregates")
	s.met.queueDepth = reg.Gauge("ppp_serve_queue_depth", "ingest queue depth at last enqueue/dequeue")
	s.met.tenants = reg.Gauge("ppp_serve_tenants", "tenants with in-memory state")
	s.met.batchSize = reg.Histogram("ppp_serve_commit_batch_size", "snapshots per group commit",
		[]int64{1, 2, 4, 8, 16, 32, 64, 128}).Cell(0)
	h := func(name, help string) *telemetry.HistCell { return reg.Histogram(name, help, usBounds).Cell(0) }
	s.met.queueWait = h("ppp_serve_queue_wait_us", "time an ingest spent in the bounded queue before its committer dequeued it, microseconds")
	s.met.commitMerge = h("ppp_serve_commit_merge_us", "time the committer spent on one tenant batch's clone + fold of the parsed uploads into the aggregate, microseconds")
	s.met.storeSave = h("ppp_serve_store_save_us", "time one log append (write and fsync of a batch's record) took, microseconds")
	s.met.fingerprint = h("ppp_serve_fingerprint_us", "time fingerprinting a committed aggregate for its acks took, microseconds")
	s.met.ckpt = h("ppp_serve_checkpoint_us", "time one checkpoint (encode, atomic rewrite, log reset) took after its acks, microseconds")
	s.met.encode = h("ppp_serve_encode_us", "time encoding one aggregate version on its first read took, microseconds")
	s.met.ackE2E = h("ppp_serve_ack_e2e_us", "admission-to-ack latency of successfully committed ingests, microseconds")
	if reg != nil {
		s.trace = reg.Trace()
		s.spans = reg.Spans()
	}
	s.drift = drift.NewMonitor(reg, cfg.Drift)
	return s, nil
}

// Start launches the committer goroutine. Idempotent.
func (s *Server) Start() {
	if s.started.Swap(true) {
		return
	}
	go s.committer()
}

// Shutdown drains cleanly: new ingest is refused, queued snapshots
// are committed, and the committer exits. Returns ctx.Err() if the
// drain deadline expires first (queued-but-uncommitted snapshots were
// never acked, so nothing acknowledged is lost even then).
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	if !s.started.Load() {
		return nil
	}
	s.quitOnce.Do(func() { close(s.quit) })
	select {
	case <-s.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Draining reports whether shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// QueueLen returns the current ingest queue depth (bounded by
// construction at Config.QueueDepth).
func (s *Server) QueueLen() int { return len(s.queue) }

// overloaded reports whether read traffic should shed: the ingest
// queue has crossed the shed threshold, so merge capacity goes to
// ingest first (reads degrade before writes are refused).
func (s *Server) overloaded() bool {
	return float64(len(s.queue)) >= s.cfg.ShedThreshold*float64(cap(s.queue))
}

// Ingest runs the queue/commit/ack protocol for an in-process caller:
// encode snap once (the bytes its log record holds) and parse the
// bytes as the HTTP handler does, so the committer folds every upload
// the same way; enqueue with backpressure, wait for the committer's
// durable ack. The returned int is an HTTP status for the error cases
// (400 a snapshot past the codec's limits, which replay could not
// read back, 429 full, 503 draining/timeout/append-failure).
func (s *Server) Ingest(ctx context.Context, tenantName, key string, snap *profile.Snapshot) (Ack, int, error) {
	data := snapshot.Encode(snap)
	up, err := snapshot.Parse(data)
	if err != nil {
		return Ack{}, 400, fmt.Errorf("serve: snapshot does not read back from its encoding: %w", err)
	}
	return s.ingest(ctx, tenantName, key, TraceIDForKey(key), 0, up, data)
}

// ingest is Ingest for an upload already parsed from data (the HTTP
// layer validated it), plus the trace identity the HTTP layer
// extracted (or derived) from the request, so committer spans stitch
// to the client's attempts.
func (s *Server) ingest(ctx context.Context, tenantName, key, traceID string, attempt int, up *snapshot.Upload, data []byte) (Ack, int, error) {
	s.met.bump(s.met.ingest)
	if s.draining.Load() {
		return Ack{}, 503, fmt.Errorf("serve: draining")
	}
	item := &ingestItem{
		tenant: tenantName, key: key, up: up, data: data, done: make(chan ackResult, 1),
		traceID: traceID, attempt: attempt, admitAt: time.Now(),
	}
	item.enqueueAt = item.admitAt
	select {
	case s.queue <- item:
		s.met.queueDepth.Set(float64(len(s.queue)))
	default:
		s.met.bump(s.met.backpressure)
		s.trace.Emit(telemetry.Event{
			Unit: "serve", Routine: tenantName, Kind: telemetry.EvShed,
			Detail: "ingest queue full: 429 backpressure",
		})
		return Ack{}, 429, fmt.Errorf("serve: ingest queue full")
	}
	wait := time.NewTimer(s.cfg.RequestTimeout)
	defer wait.Stop()
	select {
	case r := <-item.done:
		return r.ack, r.code, r.err
	case <-ctx.Done():
		s.met.bump(s.met.waitTimeout)
		return Ack{}, 503, fmt.Errorf("serve: %w while awaiting commit (retry is safe: acks are idempotent)", ctx.Err())
	case <-wait.C:
		s.met.bump(s.met.waitTimeout)
		return Ack{}, 503, fmt.Errorf("serve: commit wait exceeded %v (retry is safe: acks are idempotent)", s.cfg.RequestTimeout)
	}
}

// committer is the single goroutine that owns all aggregate mutation:
// it drains the queue in arrival order, group-commits per tenant, and
// acknowledges only after the store accepted the new aggregate.
func (s *Server) committer() {
	defer close(s.done)
	for {
		var first *ingestItem
		select {
		case first = <-s.queue:
		case <-s.quit:
			s.drainRemaining()
			return
		}
		s.commitBatch(s.collect(first))
	}
}

// collect drains up to BatchMax-1 more queued items without blocking:
// group commit's cadence degradation. An idle service commits every
// snapshot individually; a saturated one folds whole batches per
// save.
func (s *Server) collect(first *ingestItem) []*ingestItem {
	batch := []*ingestItem{first}
	for len(batch) < s.cfg.BatchMax {
		select {
		case it := <-s.queue:
			batch = append(batch, it)
		default:
			s.met.queueDepth.Set(float64(len(s.queue)))
			return batch
		}
	}
	s.met.queueDepth.Set(float64(len(s.queue)))
	return batch
}

// drainRemaining commits whatever shutdown left in the queue.
func (s *Server) drainRemaining() {
	for {
		select {
		case it := <-s.queue:
			s.commitBatch(s.collect(it))
		default:
			return
		}
	}
}

// commitBatch groups a batch by tenant (preserving per-tenant arrival
// order — the fold order clients' acks commit to) and commits tenants
// in name order for deterministic processing.
func (s *Server) commitBatch(batch []*ingestItem) {
	s.met.bump(s.met.batches)
	s.met.observeBatch(len(batch))
	dequeued := time.Now()
	for _, it := range batch {
		waitUS := dequeued.Sub(it.enqueueAt).Microseconds()
		s.met.observeHist(s.met.queueWait, waitUS)
		s.spans.Emit(telemetry.Span{
			Trace: it.traceID, Tenant: it.tenant, Stage: telemetry.StageQueueWait,
			Attempt: it.attempt, DurUS: waitUS,
		})
	}
	byTenant := map[string][]*ingestItem{}
	var order []string
	for _, it := range batch {
		if _, ok := byTenant[it.tenant]; !ok {
			order = append(order, it.tenant)
		}
		byTenant[it.tenant] = append(byTenant[it.tenant], it)
	}
	sort.Strings(order)
	for _, tn := range order {
		s.commitTenant(tn, byTenant[tn])
	}
}

// commitTenant folds one tenant's batch into a scratch copy of the
// aggregate, appends the batch's log record, and only once that record
// is durable swaps the copy in and acks — the transactional heart of
// acked-implies-durable. A failed append leaves the previous aggregate
// (in memory and on disk) untouched and nacks the whole batch, so
// clients retry and nothing half-merged can ever be served or
// double-counted. Work over the whole aggregate other than the
// fingerprint the acks carry (drift scoring, the checkpoint) runs
// after the acks.
func (s *Server) commitTenant(name string, items []*ingestItem) {
	t, err := s.tenantFor(name)
	if err != nil {
		s.nack(name, items, err)
		return
	}

	// Partition into fresh items (to fold) and duplicates (answered
	// from the idempotency log). A duplicate of a fresh key in this
	// same batch rides along and acks with the fresh item's seq.
	var fresh []*ingestItem
	dupOf := map[*ingestItem]uint64{}      // committed duplicates → seq
	pending := map[string]*ingestItem{}    // batch-local key → fresh item
	pendingDup := map[*ingestItem]string{} // batch-local duplicates → key
	s.mu.Lock()
	for _, it := range items {
		if seq, ok := t.seqs[it.key]; ok {
			dupOf[it] = seq
			continue
		}
		if _, ok := pending[it.key]; ok {
			pendingDup[it] = it.key
			continue
		}
		pending[it.key] = it
		fresh = append(fresh, it)
	}
	cur := t.cur
	first := t.nextSeq + 1
	s.mu.Unlock()

	if len(fresh) == 0 {
		// Nothing to fold: every item was a known duplicate.
		for _, it := range items {
			s.met.bump(s.met.deduped)
			s.finish(it, ackResult{ack: Ack{Tenant: name, Seq: dupOf[it], Fingerprint: fpString(cur.fp), Deduped: true}, code: 200})
		}
		return
	}

	// The committer is the aggregate's only writer and readers never
	// mutate it, so the clone reads cur without holding s.mu.
	mergeStart := time.Now()
	next := profile.NewSnapshot()
	if cur != nil {
		next = cur.agg.Clone()
	}
	for _, it := range fresh {
		it.up.FoldInto(next)
	}
	mergeUS := time.Since(mergeStart).Microseconds()
	s.met.observeHist(s.met.commitMerge, mergeUS)
	for _, it := range fresh {
		s.spans.Emit(telemetry.Span{
			Trace: it.traceID, Tenant: name, Stage: telemetry.StageCommitMerge,
			Attempt: it.attempt, DurUS: mergeUS,
		})
	}
	s.met.bump(s.met.saves)
	saveStart := time.Now()
	s.rec = appendRecord(s.rec[:0], first, fresh)
	saveErr := s.cfg.Store.Append(name, s.rec)
	saveUS := time.Since(saveStart).Microseconds()
	s.met.observeHist(s.met.storeSave, saveUS)
	saveStatus, saveDetail := 0, ""
	if saveErr != nil {
		saveStatus, saveDetail = 503, "log append failed"
	}
	for _, it := range fresh {
		s.spans.Emit(telemetry.Span{
			Trace: it.traceID, Tenant: name, Stage: telemetry.StageStoreSave,
			Attempt: it.attempt, Status: saveStatus, DurUS: saveUS, Detail: saveDetail,
		})
	}
	if saveErr != nil {
		s.met.bump(s.met.saveErrs)
		s.trace.Emit(telemetry.Event{
			Unit: "serve", Routine: name, Kind: telemetry.EvStoreFault,
			Flow:   int64(len(fresh)),
			Detail: "log append failed; batch not acked: " + saveErr.Error(),
		})
		s.nackFresh(name, items, dupOf, cur, saveErr)
		return
	}

	fpStart := time.Now()
	v := &version{agg: next, fp: next.Fingerprint()}
	s.met.observeHist(s.met.fingerprint, time.Since(fpStart).Microseconds())
	fp := fpString(v.fp)
	s.mu.Lock()
	t.cur = v
	t.logged += int64(len(s.rec))
	seqOf := map[string]uint64{}
	for _, it := range fresh {
		t.nextSeq++
		t.seqs[it.key] = t.nextSeq
		t.log = append(t.log, LogEntry{Seq: t.nextSeq, Key: it.key})
		seqOf[it.key] = t.nextSeq
	}
	liveSeq := t.nextSeq
	s.mu.Unlock()

	for _, it := range items {
		switch {
		case dupOf[it] != 0:
			s.met.bump(s.met.deduped)
			s.finish(it, ackResult{ack: Ack{Tenant: name, Seq: dupOf[it], Fingerprint: fp, Deduped: true}, code: 200})
		case pendingDup[it] != "":
			s.met.bump(s.met.deduped)
			s.finish(it, ackResult{ack: Ack{Tenant: name, Seq: seqOf[pendingDup[it]], Fingerprint: fp, Deduped: true}, code: 200})
		default:
			s.met.bump(s.met.acked)
			s.met.bump(s.met.merged)
			s.finish(it, ackResult{ack: Ack{Tenant: name, Seq: seqOf[it.key], Fingerprint: fp}, code: 200})
		}
	}

	// Re-score drift against the guide now that the new aggregate is
	// live. Only the committer mutates aggregates, so reading
	// next.Edges here races with nothing.
	s.drift.ObserveCommit(name, next.Edges, liveSeq)
	s.checkpoint(t, v)
}

// checkpoint folds the log into a fresh checkpoint once the bytes
// logged since the last one exceed its size, so the log (and so
// replay on restart) stays no larger than the aggregate and every
// acked byte is written at most twice. It runs after the acks: a
// failure is recorded and retried on a later commit, never nacked.
func (s *Server) checkpoint(t *tenant, v *version) {
	s.mu.Lock()
	due := t.logged > t.ckptBytes
	s.mu.Unlock()
	if !due {
		return
	}
	start := time.Now()
	// t.log is written only by this goroutine, so reading it here
	// without s.mu races with nothing.
	ckpt := encodeCheckpoint(t.log, s.encoded(v))
	err := s.cfg.Store.Save(t.name, ckpt)
	s.met.observeHist(s.met.ckpt, time.Since(start).Microseconds())
	if err != nil {
		s.met.bump(s.met.ckptErrs)
		s.trace.Emit(telemetry.Event{
			Unit: "serve", Routine: t.name, Kind: telemetry.EvStoreFault,
			Detail: "checkpoint failed; acked commits stay in the log, retried next commit: " + err.Error(),
		})
		return
	}
	s.mu.Lock()
	t.logged, t.ckptBytes = 0, int64(len(ckpt))
	s.mu.Unlock()
}

// finish delivers one item's outcome: the ack-e2e histogram observes
// successful commits, the ack span records the outcome either way, and
// the waiting handler unblocks.
func (s *Server) finish(it *ingestItem, res ackResult) {
	e2eUS := time.Since(it.admitAt).Microseconds()
	if res.code == 200 {
		s.met.observeHist(s.met.ackE2E, e2eUS)
	}
	detail := ""
	if res.ack.Deduped {
		detail = "deduped"
	}
	s.spans.Emit(telemetry.Span{
		Trace: it.traceID, Tenant: it.tenant, Stage: telemetry.StageAck,
		Attempt: it.attempt, Status: res.code, DurUS: e2eUS, Detail: detail,
	})
	it.done <- res
}

// nack rejects every item of a batch with 503.
func (s *Server) nack(name string, items []*ingestItem, err error) {
	for _, it := range items {
		s.finish(it, ackResult{code: 503, err: err})
	}
}

// nackFresh rejects the items whose data did not become durable;
// already-committed duplicates still ack (their data is durable) with
// the fingerprint of cur, the aggregate still live.
func (s *Server) nackFresh(name string, items []*ingestItem, dupOf map[*ingestItem]uint64, cur *version, err error) {
	for _, it := range items {
		if seq, ok := dupOf[it]; ok {
			s.met.bump(s.met.deduped)
			s.finish(it, ackResult{ack: Ack{Tenant: name, Seq: seq, Fingerprint: fpString(cur.fp), Deduped: true}, code: 200})
			continue
		}
		s.finish(it, ackResult{code: 503, err: fmt.Errorf("serve: durable log append failed, not acked: %w", err)})
	}
}

// tenantFor returns (creating if needed) the tenant, recovering it
// from the durable store on first touch — the crash recovery path:
// the store's checkpoint with its log replayed gives the last acked
// aggregate, and its commit log gives the seqs and idempotency keys,
// so the service resumes exactly where its acks left off. Only a
// tenant the store has never seen starts empty; an unreadable stored
// state is an error, so the next commit cannot write over it.
func (s *Server) tenantFor(name string) (*tenant, error) {
	return s.resolve(name, true)
}

// tenantLoad is a tenant's first touch in flight: one Store.Load
// whose outcome every concurrent touch of the tenant waits for and
// shares. Once done is closed, t is the recovered tenant, or err says
// why there is none.
type tenantLoad struct {
	done chan struct{}
	t    *tenant
	err  error
}

// resolve returns the in-memory tenant, recovering it from the store
// on first touch with one Store.Load, shared by concurrent touches. A
// tenant the store does not know is created empty when create is set
// and is nil otherwise. Any other load failure emits a store-fault
// event and returns an error without caching anything, so every later
// touch retries the load and the stored files stay as they are.
func (s *Server) resolve(name string, create bool) (*tenant, error) {
	s.mu.Lock()
	t, l := s.tenants[name], s.loads[name]
	first := t == nil && l == nil
	if first {
		l = &tenantLoad{done: make(chan struct{})}
		s.loads[name] = l
	}
	s.mu.Unlock()
	if t != nil {
		return t, nil
	}
	if first {
		s.load(name, l)
	}
	<-l.done
	switch {
	case l.t != nil:
		return l.t, nil
	case !errors.Is(l.err, os.ErrNotExist):
		return nil, l.err
	case !create:
		return nil, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if t = s.tenants[name]; t == nil {
		t = &tenant{name: name, seqs: map[string]uint64{}}
		s.install(t)
	}
	return t, nil
}

// load runs the Store.Load of a first touch and publishes its outcome
// through l.
func (s *Server) load(name string, l *tenantLoad) {
	defer close(l.done)
	rec, err := s.cfg.Store.Load(name)
	switch {
	case err == nil:
		t := &tenant{name: name, seqs: map[string]uint64{}, log: rec.Log, nextSeq: uint64(len(rec.Log))}
		t.cur = &version{agg: rec.Agg, fp: rec.Agg.Fingerprint()}
		if rec.Data != nil {
			// The checkpoint's bytes are this version's encoding already.
			t.cur.once.Do(func() { t.cur.data = rec.Data })
		}
		for _, e := range t.log {
			t.seqs[e.Key] = e.Seq
		}
		l.t = t
	case errors.Is(err, os.ErrNotExist):
		l.err = err
	default:
		s.trace.Emit(telemetry.Event{
			Unit: "serve", Routine: name, Kind: telemetry.EvStoreFault,
			Detail: "stored aggregate unreadable; tenant refused: " + err.Error(),
		})
		l.err = fmt.Errorf("serve: tenant %q: stored aggregate unreadable: %w", name, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.loads, name)
	if l.t == nil {
		return
	}
	// A tenant created empty after an earlier not-found load may have
	// committed before this load read the store; it stays live.
	if cur := s.tenants[name]; cur != nil {
		l.t = cur
		return
	}
	s.install(l.t)
}

// install adds t to the in-memory tenants. Callers hold s.mu.
func (s *Server) install(t *tenant) {
	s.tenants[t.name] = t
	s.met.tenants.Set(float64(len(s.tenants)))
}

func fpString(fp uint64) string { return fmt.Sprintf("%016x", fp) }

// lookup resolves a tenant for the read paths: in-memory state when
// it exists, else a lazy recovery from the durable store — so a
// restarted server serves every recovered aggregate, commit log and
// idempotency key without waiting for a fresh ingest. Unknown tenants
// are nil (reads must not fabricate state); an unreadable stored
// state is an error.
func (s *Server) lookup(name string) (*tenant, error) {
	if !ValidTenant(name) {
		return nil, nil
	}
	return s.resolve(name, false)
}

// live returns the tenant's current version (nil when the tenant is
// unknown or has no aggregate).
func (s *Server) live(t *tenant) *version {
	if t == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return t.cur
}

// AggregateBytes returns the current acked aggregate's encoding for a
// tenant (nil when the tenant is unknown, empty or unreadable), plus
// its fingerprint string.
func (s *Server) AggregateBytes(name string) ([]byte, string) {
	t, _ := s.lookup(name)
	return s.aggregateBytes(t)
}

// aggregateBytes encodes the live version on its first read; the bytes
// always belong to the version whose fingerprint comes with them.
func (s *Server) aggregateBytes(t *tenant) ([]byte, string) {
	v := s.live(t)
	if v == nil {
		return nil, ""
	}
	return s.encoded(v), fpString(v.fp)
}

// Aggregate returns the decoded aggregate (nil when absent). The
// returned snapshot is the live one; callers must not mutate it.
func (s *Server) Aggregate(name string) *profile.Snapshot {
	t, _ := s.lookup(name)
	return s.aggregate(t)
}

func (s *Server) aggregate(t *tenant) *profile.Snapshot {
	if v := s.live(t); v != nil {
		return v.agg
	}
	return nil
}

// CommitLog returns a copy of the tenant's fold order.
func (s *Server) CommitLog(name string) []LogEntry {
	t, _ := s.lookup(name)
	return s.commitLog(t)
}

func (s *Server) commitLog(t *tenant) []LogEntry {
	if t == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]LogEntry(nil), t.log...)
}

// Info summarizes a tenant's aggregate, or ok=false when unknown.
func (s *Server) Info(name string) (TenantInfo, bool) {
	t, _ := s.lookup(name)
	return s.info(t)
}

func (s *Server) info(t *tenant) (TenantInfo, bool) {
	if t == nil {
		return TenantInfo{}, false
	}
	s.mu.Lock()
	v := t.cur
	info := TenantInfo{Tenant: t.name, Acked: t.nextSeq, Fingerprint: fpString(0)}
	s.mu.Unlock()
	if v != nil {
		info.Fingerprint = fpString(v.fp)
		info.Bytes = len(s.encoded(v))
		info.Routines = len(v.agg.Edges)
		info.Saturated = v.agg.SaturatedRoutines()
	}
	return info, true
}

// Drift returns the server's profile-drift monitor.
func (s *Server) Drift() *drift.Monitor { return s.drift }

// ackedSeq returns the tenant's current commit sequence (0 when
// unknown).
func (s *Server) ackedSeq(name string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t := s.tenants[name]; t != nil {
		return t.nextSeq
	}
	return 0
}

// TenantNames lists tenants with in-memory state plus tenants the
// durable store knows, sorted and deduplicated.
func (s *Server) TenantNames() []string {
	set := map[string]bool{}
	if names, err := s.cfg.Store.Tenants(); err == nil {
		for _, n := range names {
			set[n] = true
		}
	}
	s.mu.Lock()
	for n := range s.tenants { //ppp:allow(mapiter) — sorted below
		set[n] = true
	}
	s.mu.Unlock()
	out := make([]string, 0, len(set))
	for n := range set { //ppp:allow(mapiter) — sorted below
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

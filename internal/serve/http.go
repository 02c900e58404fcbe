package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"pathprof/internal/core"
	"pathprof/internal/faultinject"
	"pathprof/internal/instr"
	"pathprof/internal/netprof"
	"pathprof/internal/planir"
	"pathprof/internal/snapshot"
	"pathprof/internal/telemetry"
)

// Handler returns the service's HTTP surface:
//
//	POST /v1/profiles/{tenant}       ingest a PPSNAP snapshot → Ack JSON
//	GET  /v1/profiles/{tenant}       merged aggregate as PPSNAP bytes
//	GET  /v1/profiles/{tenant}/info  aggregate summary JSON
//	GET  /v1/profiles/{tenant}/log   commit log JSON (the fold order)
//	GET  /v1/hot/{tenant}            NET hot-path predictions JSON
//	GET  /v1/plans/{tenant}          instrumentation plan IR (PPPLAN bytes)
//	GET  /v1/drift/{tenant}          profile-drift report JSON
//	GET  /v1/tenants                 tenant list JSON
//	GET  /healthz                    liveness + drain status
//	GET  /debug/ppp                  live ops dashboard (HTML)
//	/metrics, /debug/..., /trace.*   telemetry exposition (when configured)
//
// The whole surface sits behind the observation middleware (RED
// metrics + access log) and then the chaos middleware, so conndrop
// and netstall faults exercise every endpoint and observed status
// codes are what the handler computed even when chaos discards the
// response.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/profiles/{tenant}", s.handleIngest)
	mux.HandleFunc("GET /v1/profiles/{tenant}", s.handleSnapshot)
	mux.HandleFunc("GET /v1/profiles/{tenant}/info", s.handleInfo)
	mux.HandleFunc("GET /v1/profiles/{tenant}/log", s.handleLog)
	mux.HandleFunc("GET /v1/hot/{tenant}", s.handleHot)
	mux.HandleFunc("GET /v1/plans/{tenant}", s.handlePlans)
	mux.HandleFunc("GET /v1/drift/{tenant}", s.handleDrift)
	mux.HandleFunc("GET /v1/tenants", s.handleTenants)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /debug/ppp", s.handleDashboard)
	if s.cfg.Registry != nil {
		mux.HandleFunc("GET /metrics", s.handleMetrics)
		mux.Handle("/", s.cfg.Registry.Handler())
	}
	return s.chaos(s.observe(mux))
}

// TraceIDForKey derives the trace ID the service uses when a request
// carries no X-PPP-Trace header. Client and server compute the same
// derivation from the idempotency key, so retried attempts and their
// committer work share one trace even with no header propagation.
func TraceIDForKey(key string) string {
	return fmt.Sprintf("t%016x", hash64("trace\x00"+key))
}

// retryHint attaches the backpressure hint clients honor.
func (s *Server) retryHint(w http.ResponseWriter) {
	w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
}

// shed refuses a read/plan request when ingest needs the headroom:
// the degradation ladder drops read traffic first, so writers keep
// making durable progress while the queue drains.
func (s *Server) shed(w http.ResponseWriter, r *http.Request) bool {
	if !s.overloaded() {
		return false
	}
	s.met.bump(s.met.shed)
	s.trace.Emit(telemetry.Event{
		Unit: "serve", Routine: r.PathValue("tenant"), Kind: telemetry.EvShed,
		Detail: "read shed under ingest overload: " + r.URL.Path,
	})
	s.retryHint(w)
	http.Error(w, "overloaded: read traffic shed while the ingest queue drains", http.StatusServiceUnavailable)
	return true
}

// readTenant resolves a read request's tenant: nil when the tenant is
// unknown, and ok=false (after answering 503 itself) when its stored
// aggregate is unreadable.
func (s *Server) readTenant(w http.ResponseWriter, r *http.Request) (*tenant, bool) {
	t, err := s.lookup(r.PathValue("tenant"))
	if err != nil {
		s.storeUnavailable(w, err)
		return nil, false
	}
	return t, true
}

// storeUnavailable answers 503 for a tenant whose stored aggregate
// cannot be read; the files are left for an operator to repair.
func (s *Server) storeUnavailable(w http.ResponseWriter, err error) {
	s.retryHint(w)
	http.Error(w, err.Error(), http.StatusServiceUnavailable)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	admitStart := time.Now()
	tenantName := r.PathValue("tenant")
	traceID := r.Header.Get("X-PPP-Trace")
	attempt, _ := strconv.Atoi(r.Header.Get("X-PPP-Attempt"))
	admitSpan := func(status int, detail string) {
		if traceID == "" {
			traceID = "t-unkeyed"
		}
		s.spans.Emit(telemetry.Span{
			Trace: traceID, Tenant: tenantName, Stage: telemetry.StageAdmit,
			Attempt: attempt, Status: status,
			DurUS: time.Since(admitStart).Microseconds(), Detail: detail,
		})
	}
	if !ValidTenant(tenantName) {
		http.Error(w, "invalid tenant name", http.StatusBadRequest)
		return
	}
	body, err := readBody(http.MaxBytesReader(w, r.Body, s.cfg.MaxSnapshotBytes), r.ContentLength, s.cfg.MaxSnapshotBytes)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.quarantine(tenantName, fmt.Sprintf("oversized snapshot (> %d bytes)", s.cfg.MaxSnapshotBytes))
			admitSpan(http.StatusRequestEntityTooLarge, "oversized snapshot")
			http.Error(w, "snapshot exceeds size limit", http.StatusRequestEntityTooLarge)
			return
		}
		admitSpan(http.StatusBadRequest, "body read failed")
		http.Error(w, "read body: "+err.Error(), http.StatusBadRequest)
		return
	}
	up, err := snapshot.Parse(body)
	if err != nil {
		// Whole-request quarantine: corrupt bytes never reach a merge,
		// and the rejection is accounted, not silent.
		s.quarantine(tenantName, "corrupt snapshot: "+err.Error())
		admitSpan(http.StatusBadRequest, "corrupt snapshot")
		http.Error(w, "corrupt snapshot: "+err.Error(), http.StatusBadRequest)
		return
	}
	key := r.Header.Get("X-PPP-Key")
	if key == "" {
		// Content-derived idempotency: byte-identical retries dedupe
		// even from clients that never set a key.
		key = fmt.Sprintf("sha:%016x", hash64(string(body)))
	}
	if traceID == "" {
		// No propagated trace: derive one from the idempotency key so
		// retried attempts still stitch (the client derives the same).
		traceID = TraceIDForKey(key)
	}
	// Echo the effective trace ID so clients and the access log see
	// the ID the committer's spans will carry.
	w.Header().Set("X-PPP-Trace", traceID)
	admitSpan(0, "")
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	ack, code, err := s.ingest(ctx, tenantName, key, traceID, attempt, up, body)
	if err != nil {
		if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
			s.retryHint(w)
		}
		http.Error(w, err.Error(), code)
		return
	}
	writeJSON(w, ack)
}

// readBody reads an ingest body whole into one buffer sized from its
// declared length, capped at limit+1 (the limit reader fails once the
// body passes limit, and the spare byte takes the read that sees EOF),
// so a body that declares its length is read without regrowing the
// buffer. A body of unknown length (chunked) starts at 512 bytes and
// grows as io.ReadAll's does.
func readBody(r io.Reader, declared, limit int64) ([]byte, error) {
	size := int64(512)
	if declared > 0 {
		size = min(declared, limit) + 1
	}
	buf := make([]byte, 0, size)
	for {
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
}

func (s *Server) quarantine(tenantName, detail string) {
	s.met.bump(s.met.quarantined)
	s.trace.Emit(telemetry.Event{
		Unit: "serve", Routine: tenantName, Kind: telemetry.EvQuarantine,
		Detail: detail,
	})
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.shed(w, r) {
		return
	}
	t, ok := s.readTenant(w, r)
	if !ok {
		return
	}
	data, fp := s.aggregateBytes(t)
	if data == nil {
		http.Error(w, "no aggregate for tenant", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-PPP-Fingerprint", fp)
	_, _ = w.Write(data)
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	if s.shed(w, r) {
		return
	}
	t, ok := s.readTenant(w, r)
	if !ok {
		return
	}
	info, ok := s.info(t)
	if !ok {
		http.Error(w, "unknown tenant", http.StatusNotFound)
		return
	}
	writeJSON(w, info)
}

func (s *Server) handleLog(w http.ResponseWriter, r *http.Request) {
	if s.shed(w, r) {
		return
	}
	t, ok := s.readTenant(w, r)
	if !ok {
		return
	}
	log := s.commitLog(t)
	if log == nil {
		log = []LogEntry{}
	}
	writeJSON(w, log)
}

func (s *Server) handleHot(w http.ResponseWriter, r *http.Request) {
	if s.shed(w, r) {
		return
	}
	t, ok := s.readTenant(w, r)
	if !ok {
		return
	}
	agg := s.aggregate(t)
	if agg == nil {
		http.Error(w, "no aggregate for tenant", http.StatusNotFound)
		return
	}
	threshold := int64(1)
	if t := r.URL.Query().Get("threshold"); t != "" {
		n, err := strconv.ParseInt(t, 10, 64)
		if err != nil || n < 0 {
			http.Error(w, "bad threshold", http.StatusBadRequest)
			return
		}
		threshold = n
	}
	exp := netprof.Expected(agg.Paths, threshold)
	if exp == nil {
		exp = []netprof.Expectation{}
	}
	writeJSON(w, exp)
}

func (s *Server) handlePlans(w http.ResponseWriter, r *http.Request) {
	if s.shed(w, r) {
		return
	}
	tenantName := r.PathValue("tenant")
	if !ValidTenant(tenantName) || s.cfg.Program == nil {
		http.Error(w, "plan serving not configured for tenant", http.StatusNotFound)
		return
	}
	source, ok := s.cfg.Program(tenantName)
	if !ok {
		http.Error(w, "plan serving not configured for tenant", http.StatusNotFound)
		return
	}
	profiler := r.URL.Query().Get("profiler")
	if profiler == "" {
		profiler = "PPP"
	}
	var tech instr.Techniques
	found := false
	for _, p := range core.Profilers() {
		if p.Name == profiler {
			tech, found = p.Tech, true
			break
		}
	}
	if !found {
		http.Error(w, fmt.Sprintf("unknown profiler %q (want PP, TPP, or PPP)", profiler), http.StatusBadRequest)
		return
	}
	pl, err := instr.ParsePlacement(r.URL.Query().Get("placement"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	t, err := s.tenantFor(tenantName)
	if err != nil {
		s.storeUnavailable(w, err)
		return
	}
	staged, err := stagedFor(t, source)
	if err != nil {
		http.Error(w, "stage tenant program: "+err.Error(), http.StatusInternalServerError)
		return
	}
	// Guide planning with the live merged aggregate's edge profiles.
	// An aggregate without any (none yet, or edge-less uploads only) is
	// no guide, and planning falls back to the staging run's profile.
	guide := core.Guide(s.aggregate(t))
	plans, err := staged.PlansGuided(tenantName, tech, pl, guide)
	if err != nil {
		http.Error(w, "build plans: "+err.Error(), http.StatusInternalServerError)
		return
	}
	if guide != nil {
		// The plans just served were built from this aggregate: freeze
		// it as the tenant's guide so drift is measured against what
		// the optimizer is actually acting on.
		s.drift.SetGuide(tenantName, guide, s.ackedSeq(tenantName))
	}
	prog := planir.FromPlans(plans)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-PPP-Plan-Fingerprint", fmt.Sprintf("%016x", prog.Fingerprint()))
	_, _ = w.Write(prog.Encode())
}

// stagedFor stages a tenant's program once and caches the result on
// the tenant; concurrent first requests serialize on the Once.
func stagedFor(t *tenant, source string) (*core.Staged, error) {
	t.stageOnce.Do(func() {
		t.staged, t.stageErr = core.NewPipeline(t.name, source).Stage()
	})
	return t.staged, t.stageErr
}

func (s *Server) handleTenants(w http.ResponseWriter, r *http.Request) {
	if s.shed(w, r) {
		return
	}
	writeJSON(w, s.TenantNames())
}

func (s *Server) handleDrift(w http.ResponseWriter, r *http.Request) {
	if s.shed(w, r) {
		return
	}
	rep, ok := s.drift.Report(r.PathValue("tenant"))
	if !ok {
		http.Error(w, "no drift report for tenant (no commits scored yet)", http.StatusNotFound)
		return
	}
	writeJSON(w, rep)
}

// handleMetrics serves the Prometheus exposition. The handlers and the
// committer (also after its acks) write the metric cells under
// s.met.mu, so the scrape folds them under it too, into a buffer.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var buf bytes.Buffer
	s.met.mu.Lock()
	err := s.cfg.Registry.WritePrometheus(&buf)
	s.met.mu.Unlock()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(buf.Bytes())
}

// handleDashboard serves the live ops view: service state and the
// per-tenant drift table first, then the generic registry sections
// (histogram quantiles, gauges, counters, recent trace events), read
// under s.met.mu like /metrics.
func (s *Server) handleDashboard(w http.ResponseWriter, r *http.Request) {
	s.met.mu.Lock()
	page := s.cfg.Registry.DashboardPage("pppd — profile service")
	s.met.mu.Unlock()
	service := telemetry.DashSection{
		Title: "Service",
		Cols:  []string{"queue depth", "queue cap", "draining", "tenants"},
		Rows: [][]string{{
			strconv.Itoa(s.QueueLen()), strconv.Itoa(cap(s.queue)),
			strconv.FormatBool(s.Draining()), strconv.Itoa(len(s.TenantNames())),
		}},
	}
	driftSec := telemetry.DashSection{
		Title: "Profile drift",
		Note:  "live aggregate vs the guide profile served plans were built on",
		Cols:  []string{"tenant", "state", "flow divergence", "hot overlap", "commits since replan", "secs since replan"},
	}
	for _, name := range s.drift.Tenants() {
		rep, ok := s.drift.Report(name)
		if !ok {
			continue
		}
		state := "ok"
		if rep.Drifted {
			state = "DRIFTED"
		}
		driftSec.Rows = append(driftSec.Rows, []string{
			rep.Tenant, state,
			strconv.FormatFloat(rep.FlowDivergence, 'f', 3, 64),
			strconv.FormatFloat(rep.HotOverlap, 'f', 3, 64),
			strconv.FormatUint(rep.CommitsSinceReplan, 10),
			strconv.FormatFloat(rep.SecsSinceReplan, 'f', 1, 64),
		})
	}
	storeSec := telemetry.DashSection{
		Title: "Tenant store",
		Note:  "log bytes appended since the last checkpoint; a checkpoint runs once they exceed its size",
		Cols:  []string{"tenant", "acked seq", "log bytes since checkpoint", "checkpoint bytes"},
	}
	s.mu.Lock()
	for name, t := range s.tenants { //ppp:allow(mapiter) — rows sorted below
		storeSec.Rows = append(storeSec.Rows, []string{
			name, strconv.FormatUint(t.nextSeq, 10),
			strconv.FormatInt(t.logged, 10), strconv.FormatInt(t.ckptBytes, 10),
		})
	}
	s.mu.Unlock()
	sort.Slice(storeSec.Rows, func(i, j int) bool { return storeSec.Rows[i][0] < storeSec.Rows[j][0] })
	front := []telemetry.DashSection{service}
	if len(storeSec.Rows) > 0 {
		front = append(front, storeSec)
	}
	if len(driftSec.Rows) > 0 {
		front = append(front, driftSec)
	}
	page.Sections = append(front, page.Sections...)
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := telemetry.RenderDashboard(w, page); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// endpointOf classifies a request for RED metrics and the access log.
// Go 1.22 has no Request.Pattern yet, so the classification is by
// method and path shape.
func endpointOf(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && strings.HasPrefix(p, "/v1/profiles/"):
		return "ingest"
	case strings.HasPrefix(p, "/v1/profiles/") && strings.HasSuffix(p, "/info"):
		return "info"
	case strings.HasPrefix(p, "/v1/profiles/") && strings.HasSuffix(p, "/log"):
		return "log"
	case strings.HasPrefix(p, "/v1/profiles/"):
		return "snapshot"
	case strings.HasPrefix(p, "/v1/hot/"):
		return "hot"
	case strings.HasPrefix(p, "/v1/plans/"):
		return "plans"
	case strings.HasPrefix(p, "/v1/drift/"):
		return "drift"
	case p == "/v1/tenants":
		return "tenants"
	case p == "/healthz":
		return "healthz"
	case p == "/debug/ppp":
		return "dashboard"
	case p == "/metrics":
		return "metrics"
	case strings.HasPrefix(p, "/trace."):
		return "trace"
	case strings.HasPrefix(p, "/debug/"):
		return "debug"
	default:
		return "other"
	}
}

// redFor returns (creating if needed) the endpoint's RED series.
func (s *Server) redFor(endpoint string) *redSeries {
	s.redMu.Lock()
	defer s.redMu.Unlock()
	rs := s.red[endpoint]
	if rs == nil {
		reg := s.cfg.Registry
		label := fmt.Sprintf("{endpoint=%q}", endpoint)
		rs = &redSeries{
			requests: reg.Counter("ppp_serve_http_requests_total"+label,
				"HTTP requests by endpoint").Cell(0),
			errors: reg.Counter("ppp_serve_http_errors_total"+label,
				"HTTP responses with status >= 400 by endpoint").Cell(0),
			dur: reg.Histogram("ppp_serve_http_duration_us"+label,
				"HTTP request duration by endpoint, microseconds", usBounds).Cell(0),
		}
		s.red[endpoint] = rs
	}
	return rs
}

// statusWriter records the status a handler chose so middleware can
// observe it after the fact.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// observe wraps the surface with RED metrics and the structured
// access log. It runs inside the chaos middleware, so a discarded
// response still observes the status the handler computed. The Go
// 1.22 mux records path values on the request in place, so
// r.PathValue is readable here after next.ServeHTTP.
func (s *Server) observe(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(sw, r)
		durUS := time.Since(start).Microseconds()
		ep := endpointOf(r)
		rs := s.redFor(ep)
		s.met.bump(rs.requests)
		if sw.code >= 400 {
			s.met.bump(rs.errors)
		}
		s.met.observeHist(rs.dur, durUS)
		if s.cfg.AccessLog == nil {
			return
		}
		traceID := sw.Header().Get("X-PPP-Trace")
		if traceID == "" {
			traceID = r.Header.Get("X-PPP-Trace")
		}
		if traceID == "" {
			traceID = "-"
		}
		tenantName := r.PathValue("tenant")
		if tenantName == "" {
			tenantName = "-"
		}
		attempt := r.Header.Get("X-PPP-Attempt")
		if attempt == "" {
			attempt = "0"
		}
		fmt.Fprintf(s.cfg.AccessLog,
			"ppp-access tenant=%s endpoint=%s status=%d dur_us=%d trace=%s attempt=%s\n",
			tenantName, ep, sw.code, durUS, traceID, attempt)
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.Draining() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	fmt.Fprintf(w, "{\"status\":%q,\"queue\":%d}\n", status, s.QueueLen())
}

// chaosSite derives the deterministic fault site for a request. The
// client's attempt counter participates, so a retry of a dropped
// request draws a fresh decision instead of dropping forever.
func chaosSite(r *http.Request) uint64 {
	return hash64(r.Method + " " + r.URL.Path + "#" +
		r.Header.Get("X-PPP-Key") + "#" + r.Header.Get("X-PPP-Attempt"))
}

// chaos wraps the surface with deterministic network fault injection.
// ConnDrop severs the connection without a response — before the
// handler runs (nothing committed; the retry is a fresh ingest) or
// after it (committed but unacked; the retry must dedupe), the phase
// chosen deterministically per site. NetStall buffers the response
// and sits on it past the client's attempt deadline.
func (s *Server) chaos(next http.Handler) http.Handler {
	inj := s.cfg.Inject
	if !inj.Active(faultinject.ConnDrop) && !inj.Active(faultinject.NetStall) {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		site := chaosSite(r)
		drop := inj.Hit(faultinject.ConnDrop, site)
		stall := inj.Hit(faultinject.NetStall, site)
		if drop && inj.Rand(faultinject.ConnDrop, site^0x9e37)&1 == 0 {
			s.emitChaos(r, "conndrop before processing")
			panic(http.ErrAbortHandler)
		}
		if !drop && !stall {
			next.ServeHTTP(w, r)
			return
		}
		// Buffer the response so the fault lands after the handler's
		// side effects (the commit) but before any byte reaches the
		// client.
		rec := &bufferedResponse{header: http.Header{}, code: http.StatusOK}
		next.ServeHTTP(rec, r)
		if stall {
			s.emitChaos(r, "netstall holding response")
			time.Sleep(s.cfg.StallTime)
		}
		if drop {
			s.emitChaos(r, "conndrop after processing")
			panic(http.ErrAbortHandler)
		}
		rec.copyTo(w)
	})
}

func (s *Server) emitChaos(r *http.Request, detail string) {
	s.trace.Emit(telemetry.Event{
		Unit: "serve", Routine: r.PathValue("tenant"), Kind: telemetry.EvFaultInject,
		Detail: detail + ": " + r.Method + " " + r.URL.Path,
	})
}

// bufferedResponse captures a handler's response without forwarding
// it, so chaos faults can discard or delay a fully computed response.
type bufferedResponse struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (b *bufferedResponse) Header() http.Header { return b.header }

func (b *bufferedResponse) WriteHeader(code int) { b.code = code }

func (b *bufferedResponse) Write(p []byte) (int, error) { return b.body.Write(p) }

func (b *bufferedResponse) copyTo(w http.ResponseWriter) {
	for k, vs := range b.header { //ppp:allow(mapiter) — header write order is not semantic
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(b.code)
	_, _ = w.Write(b.body.Bytes())
}

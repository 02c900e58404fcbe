package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pathprof/internal/profile"
	"pathprof/internal/serve"
	"pathprof/internal/telemetry"
)

// shiftedSnap builds a snapshot whose hot edges share nothing with
// testSnap: used to drive a tenant outside its drift envelope.
func shiftedSnap(scale int64) *profile.Snapshot {
	s := profile.NewSnapshot()
	ep := profile.NewEdgeProfile("work")
	ep.Add(7, 8, 5000*scale)
	ep.Add(8, 9, 4000*scale)
	ep.Calls = scale
	s.Edges["work"] = ep
	return s
}

func postSnapshot(t *testing.T, baseURL, tenant, key string, data []byte) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, baseURL+"/v1/profiles/"+tenant, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-PPP-Key", key)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", tenant, err)
	}
	return resp
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// TestStitchedTraceEndToEnd publishes one snapshot through the real
// client and asserts /trace.jsonl holds the full request lifecycle —
// client attempt, admission, queue wait, commit merge, store save,
// ack — stitched under one derived trace ID.
func TestStitchedTraceEndToEnd(t *testing.T) {
	reg := telemetry.NewRegistry(256)
	s := newServer(t, serve.Config{Registry: reg})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	client := &serve.Client{BaseURL: ts.URL, Spans: reg.Spans()}
	res, err := client.Publish(context.Background(), "app", "k1", encodeSnap(0, 0))
	if err != nil {
		t.Fatalf("publish: %v", err)
	}
	wantTrace := serve.TraceIDForKey("k1")
	if res.TraceID != wantTrace {
		t.Fatalf("client trace ID %q, server derivation %q", res.TraceID, wantTrace)
	}
	if len(res.Timings) != 1 || res.Timings[0].Status != http.StatusOK {
		t.Fatalf("timings = %+v, want one 200 attempt", res.Timings)
	}

	code, body := get(t, ts.URL+"/trace.jsonl")
	if code != http.StatusOK {
		t.Fatalf("/trace.jsonl: status %d", code)
	}
	stages := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		var ev struct {
			Trace string `json:"trace"`
			Stage string `json:"stage"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		if ev.Trace == wantTrace {
			stages[ev.Stage] = true
		}
	}
	for _, want := range []string{"client-send", "admit", "queue-wait", "commit-merge", "store-save", "ack"} {
		if !stages[want] {
			t.Fatalf("trace %s missing stage %q; got %v", wantTrace, want, stages)
		}
	}
}

// TestDriftFiresOnShiftedTenant drives tenant "hot" outside its drift
// envelope while tenant "flat" re-publishes its original mix, and
// asserts /v1/drift reports exactly the shifted tenant as drifted.
func TestDriftFiresOnShiftedTenant(t *testing.T) {
	reg := telemetry.NewRegistry(256)
	s := newServer(t, serve.Config{Registry: reg})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ctx := context.Background()

	base := testSnap(0, 0)
	for _, tenant := range []string{"hot", "flat"} {
		if _, code, err := s.Ingest(ctx, tenant, "base", base); err != nil {
			t.Fatalf("%s base ingest: %v (code %d)", tenant, err, code)
		}
	}
	// The shifted tenant's mix moves to a disjoint hot set; the flat
	// tenant just sees more of the same.
	if _, code, err := s.Ingest(ctx, "hot", "shift", shiftedSnap(20)); err != nil {
		t.Fatalf("hot shift ingest: %v (code %d)", err, code)
	}
	if _, code, err := s.Ingest(ctx, "flat", "again", testSnap(0, 1)); err != nil {
		t.Fatalf("flat re-ingest: %v (code %d)", err, code)
	}

	readReport := func(tenant string) (rep struct {
		Drifted        bool    `json:"drifted"`
		FlowDivergence float64 `json:"flow_divergence"`
		Reason         string  `json:"reason"`
	}) {
		code, body := get(t, ts.URL+"/v1/drift/"+tenant)
		if code != http.StatusOK {
			t.Fatalf("/v1/drift/%s: status %d: %s", tenant, code, body)
		}
		if err := json.Unmarshal([]byte(body), &rep); err != nil {
			t.Fatalf("/v1/drift/%s: %v", tenant, err)
		}
		return rep
	}
	hot := readReport("hot")
	if !hot.Drifted {
		t.Fatalf("shifted tenant not drifted: %+v", hot)
	}
	flat := readReport("flat")
	if flat.Drifted {
		t.Fatalf("unshifted tenant drifted: %+v", flat)
	}
	if flat.FlowDivergence >= hot.FlowDivergence {
		t.Fatalf("flat divergence %v >= hot divergence %v", flat.FlowDivergence, hot.FlowDivergence)
	}

	// Unknown tenant has no report yet.
	if code, _ := get(t, ts.URL+"/v1/drift/nobody"); code != http.StatusNotFound {
		t.Fatalf("/v1/drift/nobody: status %d, want 404", code)
	}
}

// TestStageHistogramsInMetrics asserts the stage latency histograms
// and RED series appear in /metrics after traffic, and that the whole
// exposition passes the strict validator promcheck uses.
func TestStageHistogramsInMetrics(t *testing.T) {
	reg := telemetry.NewRegistry(256)
	s := newServer(t, serve.Config{Registry: reg})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := postSnapshot(t, ts.URL, "app", "k1", encodeSnap(0, 0))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}

	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	for _, want := range []string{
		"ppp_serve_queue_wait_us_bucket",
		"ppp_serve_commit_merge_us_bucket",
		"ppp_serve_store_save_us_bucket",
		"ppp_serve_ack_e2e_us_bucket",
		"ppp_serve_fingerprint_us_bucket",
		"ppp_serve_checkpoint_us_bucket",
		"ppp_serve_encode_us_bucket",
		`ppp_serve_http_requests_total{endpoint="ingest"}`,
		"ppp_span_events_total",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
	if err := telemetry.ValidatePrometheus(strings.NewReader(body)); err != nil {
		t.Fatalf("exposition fails strict validation: %v", err)
	}
	// The e2e ack histogram saw exactly the one acked ingest.
	hist, ok := telemetry.ScrapeHistogram(body, "ppp_serve_ack_e2e_us")
	if !ok || hist.Count != 1 {
		t.Fatalf("ack-e2e histogram = %+v ok=%v, want count 1", hist, ok)
	}
}

// TestAccessLogFormat wires Config.AccessLog and checks the
// structured line for an ingest: tenant, endpoint, status, duration,
// and the derived trace ID.
func TestAccessLogFormat(t *testing.T) {
	var buf bytes.Buffer
	s := newServer(t, serve.Config{AccessLog: &buf})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := postSnapshot(t, ts.URL, "app", "k1", encodeSnap(0, 0))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}

	line := strings.TrimSpace(buf.String())
	for _, want := range []string{
		"ppp-access tenant=app endpoint=ingest status=200",
		"dur_us=",
		"trace=" + serve.TraceIDForKey("k1"),
	} {
		if !strings.Contains(line, want) {
			t.Fatalf("access log %q missing %q", line, want)
		}
	}
}

// TestDashboardRenders hits /debug/ppp after traffic and checks the
// service sections render, including the drift table.
func TestDashboardRenders(t *testing.T) {
	reg := telemetry.NewRegistry(256)
	s := newServer(t, serve.Config{Registry: reg})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if _, code, err := s.Ingest(context.Background(), "app", "k1", testSnap(0, 0)); err != nil {
		t.Fatalf("ingest: %v (code %d)", err, code)
	}
	code, body := get(t, ts.URL+"/debug/ppp")
	if code != http.StatusOK {
		t.Fatalf("/debug/ppp: status %d", code)
	}
	for _, want := range []string{"pppd", "Profile drift", "Service", "ppp_serve_ack_e2e_us", "Tenant store", "log bytes since checkpoint"} {
		if !strings.Contains(body, want) {
			t.Fatalf("/debug/ppp missing %q", want)
		}
	}
}

// TestPublishErrorCarriesTimings asserts a failed publish surfaces
// per-attempt timing through the typed error, so pppload can report
// client-vs-server skew even for failures.
func TestPublishErrorCarriesTimings(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "overloaded", http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	c := &serve.Client{
		BaseURL:     ts.URL,
		MaxAttempts: 3,
		Sleep:       func(ctx context.Context, d time.Duration) error { return nil },
	}
	_, err := c.Publish(context.Background(), "app", "k9", encodeSnap(0, 0))
	if err == nil {
		t.Fatal("publish against a 503 server succeeded")
	}
	var perr *serve.PublishError
	if !errors.As(err, &perr) {
		t.Fatalf("error %T is not a *PublishError: %v", err, err)
	}
	if perr.TraceID != serve.TraceIDForKey("k9") {
		t.Fatalf("PublishError trace %q", perr.TraceID)
	}
	if len(perr.Timings) != 3 {
		t.Fatalf("PublishError carries %d timings, want 3: %+v", len(perr.Timings), perr.Timings)
	}
	for i, tm := range perr.Timings {
		if tm.Attempt != i || tm.Status != http.StatusServiceUnavailable {
			t.Fatalf("timing %d = %+v, want attempt %d status 503", i, tm, i)
		}
	}
}

package serve_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pathprof/internal/cfg"
	"pathprof/internal/profile"
	"pathprof/internal/serve"
	"pathprof/internal/snapshot"
	"pathprof/internal/telemetry"
)

// wirePath builds a placeholder path the way snapshot.Decode does:
// edges carrying only IDs.
func wirePath(ids ...int) cfg.Path {
	p := make(cfg.Path, len(ids))
	for i, id := range ids {
		p[i] = &cfg.DAGEdge{ID: id}
	}
	return p
}

// testSnap builds a small distinct snapshot per (emitter, n): edge
// counts and path counts vary, so every snapshot folds to a distinct
// fingerprint and merge order mistakes are visible.
func testSnap(emitter, n int) *profile.Snapshot {
	s := profile.NewSnapshot()
	ep := profile.NewEdgeProfile("work")
	ep.Add(1, 2, int64(10*emitter+n+1))
	ep.Add(2, 3, int64(n+1))
	ep.Calls = int64(emitter + 1)
	s.Edges["work"] = ep
	pp := profile.NewPathProfile("work")
	pp.Add(wirePath(1, 2), int64(emitter*7+n+1))
	pp.Add(wirePath(1, 3), int64(n+2))
	s.Paths["work"] = pp
	return s
}

func encodeSnap(emitter, n int) []byte { return snapshot.Encode(testSnap(emitter, n)) }

func newServer(t *testing.T, cfg serve.Config) *serve.Server {
	t.Helper()
	if cfg.Store == nil {
		cfg.Store = serve.NewMemStore()
	}
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s
}

func TestIngestAckIsDurable(t *testing.T) {
	store := serve.NewMemStore()
	s := newServer(t, serve.Config{Store: store})
	s.Start()

	snap := testSnap(0, 0)
	ack, code, err := s.Ingest(context.Background(), "app", "k1", snap)
	if err != nil {
		t.Fatalf("ingest: %v (code %d)", err, code)
	}
	if ack.Seq != 1 || ack.Deduped {
		t.Fatalf("ack = %+v, want seq 1, not deduped", ack)
	}

	// The ack promises durability: the store must already hold an
	// aggregate equal to the folded snapshot.
	data, err := store.Load("app")
	if err != nil {
		t.Fatalf("store has nothing despite ack: %v", err)
	}
	durable, err := snapshot.Decode(data)
	if err != nil {
		t.Fatalf("durable bytes corrupt: %v", err)
	}
	want := profile.NewSnapshot()
	want.MergeSnapshot(testSnap(0, 0))
	if durable.Fingerprint() != want.Fingerprint() {
		t.Errorf("durable fingerprint %016x != folded %016x", durable.Fingerprint(), want.Fingerprint())
	}
	if ack.Fingerprint != fmt.Sprintf("%016x", want.Fingerprint()) {
		t.Errorf("ack fingerprint %s != %016x", ack.Fingerprint, want.Fingerprint())
	}
}

func TestIngestDeduplicates(t *testing.T) {
	store := serve.NewMemStore()
	s := newServer(t, serve.Config{Store: store})
	s.Start()

	ctx := context.Background()
	first, _, err := s.Ingest(ctx, "app", "dup", testSnap(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	again, _, err := s.Ingest(ctx, "app", "dup", testSnap(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !again.Deduped || again.Seq != first.Seq {
		t.Fatalf("retry ack = %+v, want deduped with seq %d", again, first.Seq)
	}
	if got := s.CommitLog("app"); len(got) != 1 {
		t.Fatalf("commit log has %d entries after a dedup, want 1: %+v", len(got), got)
	}
	// The aggregate folded the snapshot exactly once.
	want := profile.NewSnapshot()
	want.MergeSnapshot(testSnap(1, 1))
	if got := s.Aggregate("app"); got.Fingerprint() != want.Fingerprint() {
		t.Error("dedup double-counted the snapshot")
	}
}

func TestBackpressure429AndBoundedQueue(t *testing.T) {
	// Committer not started: the queue can only fill, never drain.
	s := newServer(t, serve.Config{QueueDepth: 4, RequestTimeout: 50 * time.Millisecond})

	var wg sync.WaitGroup
	codes := make(chan int, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, code, err := s.Ingest(context.Background(), "app", fmt.Sprintf("k%d", i), testSnap(i, 0))
			if err != nil {
				codes <- code
			}
		}(i)
	}
	wg.Wait()
	close(codes)

	var got429, got503 int
	for code := range codes {
		switch code {
		case 429:
			got429++
		case 503:
			got503++
		default:
			t.Errorf("unexpected code %d", code)
		}
	}
	// 4 fit in the queue (503 on commit-wait timeout), 12 bounce with
	// backpressure; the queue never grew past its bound.
	if got429 != 12 || got503 != 4 {
		t.Errorf("got %d x 429 and %d x 503, want 12 and 4", got429, got503)
	}
	if n := s.QueueLen(); n != 4 {
		t.Errorf("queue len %d, want the hard bound 4", n)
	}
}

// flakyStore fails its first n log appends (the durable write an ack
// waits on), then heals.
type flakyStore struct {
	serve.Store
	mu       sync.Mutex
	failures int
}

func (f *flakyStore) Append(tenant string, rec []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failures > 0 {
		f.failures--
		return fmt.Errorf("flaky: injected append failure")
	}
	return f.Store.Append(tenant, rec)
}

func TestSaveFailureNacksWholeBatch(t *testing.T) {
	inner := serve.NewMemStore()
	store := &flakyStore{Store: inner, failures: 1}
	reg := telemetry.NewRegistry(1)
	s := newServer(t, serve.Config{Store: store, Registry: reg})
	s.Start()

	ctx := context.Background()
	_, code, err := s.Ingest(ctx, "app", "k1", testSnap(0, 0))
	if err == nil || code != 503 {
		t.Fatalf("ingest over failing store: code %d, err %v; want 503", code, err)
	}
	// Nothing acked, nothing durable, nothing half-merged in memory.
	if _, lerr := inner.Load("app"); lerr == nil {
		t.Error("store holds data for a nacked batch")
	}
	if got := s.CommitLog("app"); len(got) != 0 {
		t.Errorf("commit log %+v after a nack, want empty", got)
	}

	// The retry lands once the store heals, with seq 1 (nothing was
	// consumed by the failure).
	ack, _, err := s.Ingest(ctx, "app", "k1", testSnap(0, 0))
	if err != nil {
		t.Fatalf("retry after heal: %v", err)
	}
	if ack.Seq != 1 || ack.Deduped {
		t.Fatalf("retry ack = %+v, want fresh seq 1", ack)
	}
	if v := reg.Counter("ppp_serve_store_save_errors_total", "").Value(); v != 1 {
		t.Errorf("save error counter = %d, want 1", v)
	}
}

func TestShutdownDrainsQueue(t *testing.T) {
	store := serve.NewMemStore()
	s := newServer(t, serve.Config{Store: store, QueueDepth: 64})
	s.Start()

	// Concurrent emitters; shutdown must commit everything acked and
	// everything queued.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 4; j++ {
				_, _, err := s.Ingest(context.Background(), "app", fmt.Sprintf("e%d-s%d", i, j), testSnap(i, j))
				if err != nil {
					t.Errorf("ingest e%d-s%d: %v", i, j, err)
				}
			}
		}(i)
	}
	wg.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	log := s.CommitLog("app")
	if len(log) != 32 {
		t.Fatalf("commit log has %d entries, want 32", len(log))
	}
	// The durable aggregate equals the fold of the log in commit order.
	want := profile.NewSnapshot()
	for _, e := range log {
		var emitter, n int
		if _, err := fmt.Sscanf(e.Key, "e%d-s%d", &emitter, &n); err != nil {
			t.Fatalf("unexpected key %q", e.Key)
		}
		want.MergeSnapshot(testSnap(emitter, n))
	}
	data, err := store.Load("app")
	if err != nil {
		t.Fatal(err)
	}
	durable, err := snapshot.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if durable.Fingerprint() != want.Fingerprint() {
		t.Errorf("durable %016x != log fold %016x", durable.Fingerprint(), want.Fingerprint())
	}

	// Draining refuses new ingest.
	if _, code, err := s.Ingest(context.Background(), "app", "late", testSnap(9, 9)); err == nil || code != 503 {
		t.Errorf("ingest while draining: code %d err %v, want 503", code, err)
	}
}

func TestHTTPIngestAndReads(t *testing.T) {
	reg := telemetry.NewRegistry(1)
	s := newServer(t, serve.Config{Registry: reg})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	client := &serve.Client{BaseURL: ts.URL}
	data := encodeSnap(2, 3)
	res, err := client.Publish(context.Background(), "app", "web-1", data)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ack.Seq != 1 || res.Attempts != 1 {
		t.Fatalf("publish result = %+v", res)
	}

	// GET the merged aggregate: decodes, and matches the fold.
	got, fp, err := client.Fetch(context.Background(), "app")
	if err != nil {
		t.Fatal(err)
	}
	agg, err := snapshot.Decode(got)
	if err != nil {
		t.Fatalf("served aggregate corrupt: %v", err)
	}
	want := profile.NewSnapshot()
	want.MergeSnapshot(testSnap(2, 3))
	if agg.Fingerprint() != want.Fingerprint() || fp != fmt.Sprintf("%016x", want.Fingerprint()) {
		t.Errorf("served %016x (header %s), want %016x", agg.Fingerprint(), fp, want.Fingerprint())
	}

	// Info, log, tenants, hot, healthz.
	resp, err := http.Get(ts.URL + "/v1/profiles/app/info")
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	if resp.StatusCode != 200 || !strings.Contains(body, `"acked": 1`) {
		t.Errorf("info: %d %s", resp.StatusCode, body)
	}
	if log, err := client.FetchLog(context.Background(), "app"); err != nil || len(log) != 1 || log[0].Key != "web-1" {
		t.Errorf("log = %+v, %v", log, err)
	}
	resp, err = http.Get(ts.URL + "/v1/hot/app")
	if err != nil {
		t.Fatal(err)
	}
	if body = readBody(t, resp); resp.StatusCode != 200 || !strings.Contains(body, `"func": "work"`) {
		t.Errorf("hot: %d %s", resp.StatusCode, body)
	}
	resp, err = http.Get(ts.URL + "/v1/tenants")
	if err != nil {
		t.Fatal(err)
	}
	if body = readBody(t, resp); !strings.Contains(body, `"app"`) {
		t.Errorf("tenants: %s", body)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if body = readBody(t, resp); resp.StatusCode != 200 || !strings.Contains(body, `"ok"`) {
		t.Errorf("healthz: %d %s", resp.StatusCode, body)
	}
	// The telemetry surface rides along and stays well-formed.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ValidatePrometheus(strings.NewReader(readBody(t, resp))); err != nil {
		t.Errorf("metrics exposition: %v", err)
	}
}

func TestHTTPQuarantineAndLimits(t *testing.T) {
	reg := telemetry.NewRegistry(1)
	s := newServer(t, serve.Config{Registry: reg, MaxSnapshotBytes: 256})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Corrupt bytes: 400, quarantined, never merged.
	resp, err := http.Post(ts.URL+"/v1/profiles/app", "application/octet-stream",
		strings.NewReader("not a snapshot"))
	if err != nil {
		t.Fatal(err)
	}
	if readBody(t, resp); resp.StatusCode != 400 {
		t.Errorf("corrupt snapshot: status %d, want 400", resp.StatusCode)
	}

	// Oversized body: 413, quarantined.
	resp, err = http.Post(ts.URL+"/v1/profiles/app", "application/octet-stream",
		bytes.NewReader(make([]byte, 1024)))
	if err != nil {
		t.Fatal(err)
	}
	if readBody(t, resp); resp.StatusCode != 413 {
		t.Errorf("oversized snapshot: status %d, want 413", resp.StatusCode)
	}

	// Invalid tenant name: rejected before any state exists.
	resp, err = http.Post(ts.URL+"/v1/profiles/bad..name", "application/octet-stream",
		bytes.NewReader(encodeSnap(0, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if readBody(t, resp); resp.StatusCode != 400 {
		t.Errorf("invalid tenant: status %d, want 400", resp.StatusCode)
	}

	if v := reg.Counter("ppp_serve_ingest_quarantined_total", "").Value(); v != 2 {
		t.Errorf("quarantine counter = %d, want 2", v)
	}
	if s.Aggregate("app") != nil {
		t.Error("quarantined bytes reached an aggregate")
	}
}

// TestIngestBodyLengths: the ingest body is read into a buffer sized
// from its Content-Length, so a body of exactly the limit, one byte
// past it (declared or chunked, with no Content-Length) and a valid
// chunked upload must each take the path a whole read gives them: a
// body at the limit is parsed (and refused as corrupt), past it 413
// and quarantined, and the chunked upload acked as sent.
func TestIngestBodyLengths(t *testing.T) {
	const limit = 256
	reg := telemetry.NewRegistry(1)
	s := newServer(t, serve.Config{Registry: reg, MaxSnapshotBytes: limit})
	s.Start()
	var mu sync.Mutex
	var declared []int64
	h := s.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		declared = append(declared, r.ContentLength)
		mu.Unlock()
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()

	valid := encodeSnap(1, 2)
	if len(valid) >= limit {
		t.Fatalf("test snapshot of %d bytes does not fit the %d-byte limit", len(valid), limit)
	}
	// chunked hides the body's length, so the client sends it chunked.
	chunked := func(b []byte) io.Reader { return io.MultiReader(bytes.NewReader(b)) }
	cases := []struct {
		name   string
		body   io.Reader
		length int64 // as the server sees it; -1 for chunked
		status int
	}{
		{"at-limit", bytes.NewReader(make([]byte, limit)), limit, 400},
		{"past-limit", bytes.NewReader(make([]byte, limit+1)), limit + 1, 413},
		{"past-limit-chunked", chunked(make([]byte, 4*limit)), -1, 413},
		{"valid-chunked", chunked(valid), -1, 200},
	}
	for i, c := range cases {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/profiles/app", c.body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if readBody(t, resp); resp.StatusCode != c.status {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.status)
		}
		mu.Lock()
		if declared[i] != c.length {
			t.Errorf("%s: server saw Content-Length %d, want %d", c.name, declared[i], c.length)
		}
		mu.Unlock()
	}
	if v := reg.Counter("ppp_serve_ingest_quarantined_total", "").Value(); v != 3 {
		t.Errorf("quarantine counter = %d, want 3", v)
	}
	got, _ := s.AggregateBytes("app")
	want := profile.NewSnapshot()
	want.MergeSnapshot(testSnap(1, 2))
	if !bytes.Equal(got, snapshot.Encode(want)) {
		t.Error("the chunked upload did not fold as sent")
	}
}

func TestReadsShedUnderOverload(t *testing.T) {
	// Committer not started; fill the queue past the shed threshold.
	reg := telemetry.NewRegistry(1)
	s := newServer(t, serve.Config{Registry: reg, QueueDepth: 4, ShedThreshold: 0.5,
		RequestTimeout: 50 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, _ = s.Ingest(context.Background(), "app", fmt.Sprintf("k%d", i), testSnap(i, 0))
		}(i)
	}
	wg.Wait() // all four timed out waiting, queue still holds them

	resp, err := http.Get(ts.URL + "/v1/profiles/app/info")
	if err != nil {
		t.Fatal(err)
	}
	if readBody(t, resp); resp.StatusCode != 503 {
		t.Errorf("read under overload: status %d, want 503 shed", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
	if v := reg.Counter("ppp_serve_shed_total", "").Value(); v < 1 {
		t.Errorf("shed counter = %d, want >= 1", v)
	}
	// Ingest still answers (with backpressure), ahead of reads.
	if _, code, err := s.Ingest(context.Background(), "app", "k9", testSnap(9, 0)); err == nil || code != 429 {
		t.Errorf("ingest over full queue: code %d err %v, want 429", code, err)
	}
}

func TestRestartServesRecoveredAggregate(t *testing.T) {
	dir := t.TempDir()
	store, err := serve.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(t, serve.Config{Store: store})
	s.Start()
	ack, _, err := s.Ingest(context.Background(), "app", "k1", testSnap(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// A new process over the same directory serves the acked aggregate
	// without waiting for fresh ingest.
	store2, err := serve.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := newServer(t, serve.Config{Store: store2})
	data, fp := s2.AggregateBytes("app")
	if data == nil || fp != ack.Fingerprint {
		t.Fatalf("restart: aggregate fp %q, want %q", fp, ack.Fingerprint)
	}
	info, ok := s2.Info("app")
	if !ok || info.Fingerprint != ack.Fingerprint {
		t.Errorf("restart info = %+v (ok=%v)", info, ok)
	}
}

func readBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var sb strings.Builder
	if _, err := io.Copy(&sb, resp.Body); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestUnreadableStoreRefusesTenant: when both the stored aggregate
// and its .prev fallback are corrupt, the tenant is refused — ingest
// and reads answer 503 with a store-fault event — rather than
// restarted empty, and the damaged files are left exactly as found.
func TestUnreadableStoreRefusesTenant(t *testing.T) {
	dir := t.TempDir()
	store, err := serve.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 2; n++ { // primary and .prev
		if err := store.Save("app", encodeSnap(1, n)); err != nil {
			t.Fatal(err)
		}
	}
	files := map[string][]byte{}
	for _, name := range []string{"app.ppsnap", "app.ppsnap.prev"} {
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0xff
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		files[path] = data
	}

	reg := telemetry.NewRegistry(1)
	s := newServer(t, serve.Config{Store: store, Registry: reg})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := postSnapshot(t, ts.URL, "app", "k1", encodeSnap(2, 0))
	if body := readBody(t, resp); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("ingest into unreadable tenant: %d %q, want 503", resp.StatusCode, body)
	}
	for _, path := range []string{"/v1/profiles/app", "/v1/profiles/app/info", "/v1/profiles/app/log", "/v1/hot/app"} {
		if code, body := get(t, ts.URL+path); code != http.StatusServiceUnavailable {
			t.Errorf("GET %s: %d %q, want 503", path, code, body)
		}
	}
	faults := 0
	for _, e := range reg.Trace().Snapshot() {
		if e.Kind == telemetry.EvStoreFault && e.Routine == "app" {
			faults++
		}
	}
	if faults == 0 {
		t.Error("no store-fault event for the unreadable tenant")
	}
	for path, want := range files {
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s changed after the tenant was refused (err %v)", path, err)
		}
	}
	// A tenant the store has never seen still starts empty.
	if _, code, err := s.Ingest(context.Background(), "fresh", "k1", testSnap(1, 1)); err != nil {
		t.Errorf("ingest into new tenant: %d %v", code, err)
	}
}

// countingStore counts Load calls.
type countingStore struct {
	serve.Store
	mu    sync.Mutex
	loads int
}

func (c *countingStore) Load(tenant string) ([]byte, error) {
	c.mu.Lock()
	c.loads++
	c.mu.Unlock()
	return c.Store.Load(tenant)
}

// TestFirstTouchLoadsOnce: a restarted server's first read of a
// recovered tenant loads its aggregate from the store once, and later
// reads and commits are served from memory.
func TestFirstTouchLoadsOnce(t *testing.T) {
	mem := serve.NewMemStore()
	if err := mem.Save("app", encodeSnap(3, 1)); err != nil {
		t.Fatal(err)
	}
	store := &countingStore{Store: mem}
	s := newServer(t, serve.Config{Store: store})
	s.Start()
	if data, _ := s.AggregateBytes("app"); data == nil {
		t.Fatal("recovered aggregate not served")
	}
	if _, _, err := s.Ingest(context.Background(), "app", "k1", testSnap(3, 2)); err != nil {
		t.Fatal(err)
	}
	if info, ok := s.Info("app"); !ok || info.Acked != 1 {
		t.Fatalf("info after ingest = %+v (ok=%v)", info, ok)
	}
	store.mu.Lock()
	defer store.mu.Unlock()
	if store.loads != 1 {
		t.Errorf("store loaded %d times, want 1", store.loads)
	}
}

// TestReadsDuringCommitsSeeWholeVersions: readers racing the committer
// (each new version is encoded lazily by whichever read or checkpoint
// comes first) always get bytes that are the canonical encoding of the
// version whose fingerprint comes with them.
func TestReadsDuringCommitsSeeWholeVersions(t *testing.T) {
	s := newServer(t, serve.Config{})
	s.Start()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				data, fp := s.AggregateBytes("app")
				if data == nil {
					continue
				}
				snap, err := snapshot.Decode(data)
				if err != nil {
					t.Errorf("served bytes corrupt: %v", err)
					return
				}
				if got := fmt.Sprintf("%016x", snap.Fingerprint()); got != fp || !bytes.Equal(snapshot.Encode(snap), data) {
					t.Errorf("served bytes of %s are not its canonical encoding (they fingerprint %s)", fp, got)
					return
				}
			}
		}()
	}
	for i := 0; i < 24; i++ {
		if _, _, err := s.Ingest(context.Background(), "app", fmt.Sprintf("k%d", i), testSnap(i%4, i)); err != nil {
			t.Error(err)
		}
	}
	close(stop)
	wg.Wait()
}

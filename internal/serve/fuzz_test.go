package serve_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"pathprof/internal/serve"
	"pathprof/internal/snapshot"
)

// FuzzHTTPIngest posts hostile bodies, headers and idempotency keys to
// the ingest endpoint of one long-lived server. Two invariants hold
// across every input: a rejected body never reaches a fold (the
// aggregate and the commit log are unchanged after any non-200), and
// every acked key appears in the commit log exactly once, at its ack's
// seq.
func FuzzHTTPIngest(f *testing.F) {
	valid := encodeSnap(1, 2)
	f.Add(valid, "k1", "", "application/octet-stream")
	f.Add(valid, "k1", "3", "")
	f.Add(valid, "", "", "")
	f.Add(encodeSnap(3, 0), "k\x00\xff\n", "-1", "text/plain")
	f.Add(valid[:len(valid)/2], "torn", "0", "")
	f.Add([]byte("not a snapshot"), "garbage", "x", "")
	f.Add([]byte{}, "empty", "", "")
	bad := append([]byte(nil), valid...)
	bad[len(bad)/2] ^= 0x40
	f.Add(bad, "flipped", "1", "")

	s, err := serve.New(serve.Config{Store: serve.NewMemStore(), MaxSnapshotBytes: 1 << 12})
	if err != nil {
		f.Fatal(err)
	}
	s.Start()
	h := s.Handler()
	const tenant = "fuzz"
	f.Fuzz(func(t *testing.T, body []byte, key, attempt, contentType string) {
		beforeBytes, beforeFP := s.AggregateBytes(tenant)
		beforeLog := s.CommitLog(tenant)

		req := httptest.NewRequest(http.MethodPost, "/v1/profiles/"+tenant, bytes.NewReader(body))
		req.Header.Set("X-PPP-Key", key)
		req.Header.Set("X-PPP-Attempt", attempt)
		req.Header.Set("Content-Type", contentType)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)

		log := s.CommitLog(tenant)
		if rec.Code != http.StatusOK {
			afterBytes, afterFP := s.AggregateBytes(tenant)
			if afterFP != beforeFP || !bytes.Equal(afterBytes, beforeBytes) || len(log) != len(beforeLog) {
				t.Fatalf("rejected body (status %d) changed the aggregate or the commit log", rec.Code)
			}
			return
		}
		if _, err := snapshot.Decode(body); err != nil {
			t.Fatalf("acked a body that does not decode: %v", err)
		}
		var ack serve.Ack
		if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil {
			t.Fatalf("ack is not JSON: %v", err)
		}
		seen := map[string]bool{}
		for _, e := range log {
			if seen[e.Key] {
				t.Fatalf("key %q appears twice in the commit log", e.Key)
			}
			seen[e.Key] = true
		}
		if ack.Seq < 1 || ack.Seq > uint64(len(log)) || log[ack.Seq-1].Seq != ack.Seq {
			t.Fatalf("ack seq %d does not name a commit-log entry (log has %d)", ack.Seq, len(log))
		}
		if want := log[ack.Seq-1].Key; key != "" && want != key {
			t.Fatalf("ack seq %d names key %q, posted %q", ack.Seq, want, key)
		}
	})
}

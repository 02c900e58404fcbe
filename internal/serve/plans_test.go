package serve_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"pathprof/internal/core"
	"pathprof/internal/instr"
	"pathprof/internal/planir"
	"pathprof/internal/serve"
	"pathprof/internal/workloads"
)

// TestPlansFromEdgelessUploads feeds a tenant only what a
// path-instrumented run publishes (pppload, pppc -snapshot): counter
// tables and paths, no edge profile. Such an aggregate is no guide, so
// /v1/plans must serve the plans of the staging run's own profile, and
// a plan read must leave the drift guide alone.
func TestPlansFromEdgelessUploads(t *testing.T) {
	w, _ := workloads.ByName("mcf")
	s := newServer(t, serve.Config{Program: func(tenant string) (string, bool) {
		return w.Source, tenant == w.Name
	}})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	staged, err := core.NewPipeline(w.Name, w.Source).Stage()
	if err != nil {
		t.Fatal(err)
	}
	pr, err := staged.ProfileWith("PP", instr.PP(), nil)
	if err != nil {
		t.Fatal(err)
	}
	upload := pr.Run.Snapshot()
	if len(upload.Edges) != 0 || len(upload.Tables) == 0 {
		t.Fatalf("upload has %d edge profiles and %d tables, want none and some", len(upload.Edges), len(upload.Tables))
	}

	ctx := context.Background()
	ingest := func(key string) {
		t.Helper()
		ack, code, err := s.Ingest(ctx, w.Name, key, upload)
		if err != nil {
			t.Fatalf("ingest %s: %v (code %d)", key, err, code)
		}
		// The committer scores drift after it acks: wait for the score.
		deadline := time.Now().Add(10 * time.Second)
		for {
			if rep, ok := s.Drift().Report(w.Name); ok && rep.LiveSeq >= ack.Seq {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("drift never scored commit %d", ack.Seq)
			}
			time.Sleep(time.Millisecond)
		}
	}
	ingest("k1")
	ingest("k2")

	for _, pl := range []instr.Placement{instr.PlaceSpanning, instr.PlaceMinCost} {
		plans, err := staged.PlansFor("PPP", instr.PPP(), pl)
		if err != nil {
			t.Fatal(err)
		}
		instrumented := 0
		for _, p := range plans {
			if p.Instrumented {
				instrumented++
			}
		}
		if instrumented == 0 {
			t.Fatalf("%s: staged PPP plans instrument no routine", pl)
		}
		want := fmt.Sprintf("%016x", planir.FromPlans(plans).Fingerprint())
		resp, err := http.Get(fmt.Sprintf("%s/v1/plans/%s?profiler=PPP&placement=%s", ts.URL, w.Name, pl))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: /v1/plans status %d", pl, resp.StatusCode)
		}
		if got := resp.Header.Get("X-PPP-Plan-Fingerprint"); got != want {
			t.Errorf("%s: served plans %s, staged plans %s (%d routines instrumented)", pl, got, want, instrumented)
		}
	}

	// Two commits since the first adopted the guide, plan reads in
	// between: an edge-less aggregate never replaces the guide.
	ingest("k3")
	rep, _ := s.Drift().Report(w.Name)
	if rep.CommitsSinceReplan != 2 {
		t.Errorf("commits_since_replan = %d after three commits and two plan reads, want 2", rep.CommitsSinceReplan)
	}
}

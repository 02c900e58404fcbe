package serve_test

import (
	"context"
	"testing"

	"pathprof/internal/core"
	"pathprof/internal/instr"
	"pathprof/internal/serve"
	"pathprof/internal/snapshot"
	"pathprof/internal/workloads"
)

// TestInfoCountsTableOnlyRoutines ingests what pppload publishes for
// mcf — a PP-instrumented run, whose snapshot carries counter tables
// and no edge profiles — and requires the tenant summary to count its
// routines, not report zero.
func TestInfoCountsTableOnlyRoutines(t *testing.T) {
	w, _ := workloads.ByName("mcf")
	staged, err := core.NewPipeline(w.Name, w.Source).Stage()
	if err != nil {
		t.Fatal(err)
	}
	pr, err := staged.ProfileWith("PP", instr.PP(), nil)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := snapshot.Decode(snapshot.Encode(pr.Run.Snapshot()))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Tables) == 0 || len(snap.Edges) != 0 {
		t.Fatalf("PP snapshot has %d tables and %d edge profiles, want tables only", len(snap.Tables), len(snap.Edges))
	}
	s := newServer(t, serve.Config{})
	s.Start()
	if _, code, err := s.Ingest(context.Background(), "mcf", "k1", snap); err != nil {
		t.Fatalf("ingest: %v (code %d)", err, code)
	}
	info, ok := s.Info("mcf")
	if !ok {
		t.Fatal("no info for the ingested tenant")
	}
	if want := snap.Routines(); want == 0 || info.Routines != want {
		t.Errorf("info routines %d, want %d (the snapshot's routines)", info.Routines, want)
	}
}

package netprof_test

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"pathprof/internal/core"
	"pathprof/internal/netprof"
	"pathprof/internal/profile"
	"pathprof/internal/snapshot"
	"pathprof/internal/workloads"
)

// TestExpectedGolden pins the /v1/hot payload for the ingest
// workload's program, vpr: Expected's JSON, at the service's default
// threshold, for the staging run's in-process path profiles (loop
// heads resolved through the run's DAG edges) and for the same
// profiles decoded from the wire (edge IDs only, so every path folds
// to its routine's entry head). Both must stay byte-identical to the
// recorded bytes.
func TestExpectedGolden(t *testing.T) {
	w, _ := workloads.ByName("vpr")
	st, err := core.NewPipeline(w.Name, w.Source).Stage()
	if err != nil {
		t.Fatal(err)
	}
	wire, err := snapshot.Decode(snapshot.Encode(&profile.Snapshot{Paths: st.Base.Paths}))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		paths map[string]*profile.PathProfile
	}{
		{"testdata/expected_vpr_run.json", st.Base.Paths},
		{"testdata/expected_vpr_wire.json", wire.Paths},
	} {
		got, err := json.Marshal(netprof.Expected(c.paths, 1))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(c.name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, bytes.TrimSpace(want)) {
			t.Errorf("%s: Expected JSON differs from the recorded bytes (%d vs %d bytes)", c.name, len(got), len(bytes.TrimSpace(want)))
		}
	}
}

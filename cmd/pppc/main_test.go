package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// exec invokes run in-process, converting any panic into a test
// failure: hostile input must always end in a diagnostic and an exit
// code, never a crash.
func exec(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw bytes.Buffer
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("pppc %v panicked: %v", args, r)
		}
	}()
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestHostileInput feeds pppc the malformed and truncated inputs a
// dynamic optimizer's tooling meets in the wild. Every case must exit
// nonzero with a diagnostic on stderr.
func TestHostileInput(t *testing.T) {
	cases := []struct {
		name string
		args func(t *testing.T) []string
	}{
		{"no-input", func(t *testing.T) []string { return nil }},
		{"missing-file", func(t *testing.T) []string {
			return []string{"-src", filepath.Join(t.TempDir(), "nope.mc")}
		}},
		{"unknown-workload", func(t *testing.T) []string { return []string{"-workload", "quake3"} }},
		{"unknown-profiler", func(t *testing.T) []string { return []string{"-workload", "mcf", "-profiler", "XXX"} }},
		{"empty-source", func(t *testing.T) []string { return []string{"-src", writeFile(t, "e.mc", "")} }},
		{"truncated-source", func(t *testing.T) []string {
			return []string{"-src", writeFile(t, "t.mc", "func main() { return 1 +")}
		}},
		{"binary-garbage", func(t *testing.T) []string {
			return []string{"-src", writeFile(t, "g.mc", "\x00\x8a\xff{{{{func func func")}
		}},
		{"undefined-call", func(t *testing.T) []string {
			return []string{"-src", writeFile(t, "u.mc", "func main() { return ghost(); }")}
		}},
		{"bad-fault-spec", func(t *testing.T) []string {
			return []string{"-workload", "mcf", "-faults", "kind=panic"}
		}},
		{"bad-fault-kind", func(t *testing.T) []string {
			return []string{"-workload", "mcf", "-faults", "seed=1,kind=gremlins"}
		}},
		{"corrupt-edge-profile", func(t *testing.T) []string {
			return []string{"-workload", "mcf", "-load-profile", writeFile(t, "p.prof", "not a profile\n\x00\x01")}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, _, stderr := exec(t, c.args(t)...)
			if code == 0 {
				t.Fatalf("hostile input exited 0\nstderr: %s", stderr)
			}
			if strings.TrimSpace(stderr) == "" {
				t.Error("no diagnostic on stderr")
			}
		})
	}
}

// TestSnapshotLifecycle drives -snapshot end to end through the CLI:
// first run creates the file, second run loads it and rotates it to
// .prev, and a corrupted primary is recovered from the fallback with a
// warning rather than an error.
func TestSnapshotLifecycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vpr.ppsnap")
	args := []string{"-workload", "vpr", "-snapshot", path}

	code, out, stderr := exec(t, args...)
	if code != 0 {
		t.Fatalf("first run exited %d\nstderr: %s", code, stderr)
	}
	if !strings.Contains(out, "saved to "+path) {
		t.Fatalf("no save confirmation in output:\n%s", out)
	}

	code, out, stderr = exec(t, args...)
	if code != 0 {
		t.Fatalf("second run exited %d\nstderr: %s", code, stderr)
	}
	if !strings.Contains(out, "previous snapshot") {
		t.Fatalf("second run did not load the saved snapshot:\n%s", out)
	}

	// Damage the primary: the .prev fallback from the rotation must
	// carry the run, with a recovery notice on stderr.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr = exec(t, args...)
	if code != 0 {
		t.Fatalf("run with corrupt primary exited %d\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "recovered previous snapshot") {
		t.Fatalf("no recovery notice:\n%s", stderr)
	}
}

// TestFaultDrillCompletes runs every fault kind through the CLI: each
// must finish with a structured degradation report and exit 0.
func TestFaultDrillCompletes(t *testing.T) {
	code, out, stderr := exec(t,
		"-workload", "vpr", "-faults", "seed=2026,kind=all,rate=0.4")
	if code != 0 {
		t.Fatalf("fault drill exited %d\nstderr: %s", code, stderr)
	}
	for _, want := range []string{"fault drill:", "guarded run:", "snapcorrupt:", "badcfg:"} {
		if !strings.Contains(out, want) {
			t.Errorf("drill output missing %q:\n%s", want, out)
		}
	}
}

// TestProofVerdict checks that a run with no flags proves every plan
// it builds and says so, and that the trace carries exactly one proof
// event per routine plan, byte-identically across two runs.
func TestProofVerdict(t *testing.T) {
	code, out, stderr := exec(t, "-workload", "mcf")
	if code != 0 {
		t.Fatalf("default run exited %d\nstderr: %s", code, stderr)
	}
	var plans int
	for _, line := range strings.Split(out, "\n") {
		if _, err := fmt.Sscanf(line, "verify: %d routine plan(s) proven", &plans); err == nil {
			break
		}
	}
	if plans == 0 {
		t.Fatalf("no verdict line in output:\n%s", out)
	}

	dir := t.TempDir()
	var exports [2][]byte
	for i := range exports {
		path := filepath.Join(dir, fmt.Sprintf("trace-%d.jsonl", i))
		if code, _, stderr := exec(t, "-workload", "mcf", "-trace", path); code != 0 {
			t.Fatalf("traced run exited %d\nstderr: %s", code, stderr)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		exports[i] = data
	}
	if !bytes.Equal(exports[0], exports[1]) {
		t.Error("two identical runs wrote different trace exports")
	}
	proofs := map[string]int{}
	for _, line := range bytes.Split(bytes.TrimSpace(exports[0]), []byte("\n")) {
		var ev struct {
			Unit, Routine, Kind, Detail string
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		if ev.Kind != "proof" {
			continue
		}
		if ev.Unit != "mcf/verify" || ev.Detail != "ok" {
			t.Errorf("proof event %q, want unit mcf/verify with detail ok", line)
		}
		proofs[ev.Routine]++
	}
	if len(proofs) != plans {
		t.Errorf("trace proves %d routines, verdict line reports %d plans", len(proofs), plans)
	}
	for r, n := range proofs {
		if n != 1 {
			t.Errorf("routine %s has %d proof events, want 1", r, n)
		}
	}
}

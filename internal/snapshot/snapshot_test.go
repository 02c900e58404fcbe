package snapshot_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"

	"pathprof/internal/faultinject"
	"pathprof/internal/lower"
	"pathprof/internal/profile"
	"pathprof/internal/snapshot"
	"pathprof/internal/vm"
)

const workloadSrc = `
var acc = 0;
func work(n) {
	var s = 0;
	for (var i = 0; i < n; i = i + 1) {
		if (i % 3 == 0) { s = s + i; } else { s = s - 1; }
	}
	return s;
}
func main() {
	var t = 0;
	for (var j = 0; j < 30; j = j + 1) { t = t + work(j); }
	acc = t;
	return t;
}`

// realSnapshot produces a merged snapshot from an actual replicated
// profiling run, so round-trip tests exercise genuine edge profiles,
// interned paths, and counter tables.
func realSnapshot(t testing.TB) *profile.Snapshot {
	t.Helper()
	prog, err := lower.Compile(workloadSrc, lower.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := vm.RunReplicated(prog, vm.Options{CollectEdges: true, CollectPaths: true}, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Add counter tables of both kinds, with the quirks the codec must
	// carry: poison-region hits, probe collisions, lost weight, a
	// negative key, and saturation.
	at := profile.NewTable(profile.ArrayTable, 4, 12)
	at.Add(0, 41)
	at.Add(3, 1)
	at.Add(9, 5) // poison region
	at.Cold = 3
	at.Add(2, profile.CounterMax)
	at.Add(2, 7) // saturates
	rr.Merged.Tables["work"] = at

	ht := profile.NewTable(profile.HashTable, 5000, 0)
	for k := int64(0); k < 60; k++ {
		ht.Add(k*97, k+1)
	}
	ht.Add(-5, 2) // negative poison index
	rr.Merged.Tables["main"] = ht
	return rr.Merged
}

func TestRoundTripFingerprintIdentical(t *testing.T) {
	snap := realSnapshot(t)
	data := snapshot.Encode(snap)
	back, err := snapshot.Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if snap.Fingerprint() != back.Fingerprint() {
		t.Fatal("round trip changed the snapshot fingerprint")
	}
	// Saturation flags survive.
	if !back.Tables["work"].Saturated {
		t.Error("table saturation flag lost")
	}
	if got := back.SaturatedRoutines(); len(got) != 1 || got[0] != "work" {
		t.Errorf("SaturatedRoutines = %v, want [work]", got)
	}
	// Encoding is deterministic.
	if !bytes.Equal(data, snapshot.Encode(back)) {
		t.Error("re-encoding a decoded snapshot changed the bytes")
	}
}

func TestDecodeRejectsDamage(t *testing.T) {
	good := snapshot.Encode(realSnapshot(t))
	cases := []struct {
		name   string
		mangle func([]byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"short", func(b []byte) []byte { return b[:5] }},
		{"truncated-half", func(b []byte) []byte { return b[:len(b)/2] }},
		{"truncated-tail", func(b []byte) []byte { return b[:len(b)-1] }},
		{"bad-magic", func(b []byte) []byte { b[0] ^= 0xff; return b }},
		{"bad-version", func(b []byte) []byte { b[6] ^= 0x40; return b }},
		{"flip-payload", func(b []byte) []byte { b[len(b)/2] ^= 0x10; return b }},
		{"flip-checksum", func(b []byte) []byte { b[len(b)-2] ^= 1; return b }},
		{"appended-garbage", func(b []byte) []byte { return append(b, 0xAB, 0xCD) }},
		{"edge-id-overflow", func([]byte) []byte { return onePath(math.MaxInt32 + 1) }},
	}
	for _, c := range cases {
		b := c.mangle(append([]byte(nil), good...))
		snap, err := snapshot.Decode(b)
		if err == nil {
			t.Errorf("%s: corrupt input accepted", c.name)
			continue
		}
		if snap != nil {
			t.Errorf("%s: corrupt decode returned a snapshot alongside %v", c.name, err)
		}
		var ce *snapshot.CorruptError
		if !errors.As(err, &ce) {
			t.Errorf("%s: error %T is not a *CorruptError: %v", c.name, err, err)
		}
	}
}

// TestDecodeRejectsInjectedCorruption runs the deterministic fault
// injector's corruption stream over many sites: every damaged buffer
// must be rejected (or, for pure truncations that happen to cut at a
// section boundary, still never panic or misreport).
func TestDecodeRejectsInjectedCorruption(t *testing.T) {
	good := snapshot.Encode(realSnapshot(t))
	inj := faultinject.New(2026, faultinject.SnapCorrupt)
	for site := uint64(0); site < 200; site++ {
		bad := inj.Corrupt(good, site)
		if _, err := snapshot.Decode(bad); err == nil {
			t.Errorf("site %d: corrupted snapshot accepted", site)
		}
	}
}

func TestStoreSaveLoadRotation(t *testing.T) {
	dir := t.TempDir()
	st := snapshot.NewStore(filepath.Join(dir, "profiles", "app.ppsnap"))
	snap1 := realSnapshot(t)

	if _, _, err := st.Load(); err == nil {
		t.Fatal("loading a missing snapshot succeeded")
	}
	if err := st.Save(snap1); err != nil {
		t.Fatal(err)
	}
	got, fellBack, err := st.Load()
	if err != nil || fellBack {
		t.Fatalf("load: %v (fallback=%v)", err, fellBack)
	}
	if got.Fingerprint() != snap1.Fingerprint() {
		t.Fatal("loaded snapshot differs")
	}

	// Second save rotates the first to .prev.
	snap2 := realSnapshot(t)
	snap2.Edges["work"].Add(98, 99, 1234)
	if err := st.Save(snap2); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(st.PrevPath()); err != nil {
		t.Fatalf("no .prev after second save: %v", err)
	}

	// Corrupt the primary: Load must fall back to the previous good
	// snapshot and say so.
	data, err := os.ReadFile(st.Path())
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0x20
	if err := os.WriteFile(st.Path(), data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, fellBack, err = st.Load()
	if err != nil {
		t.Fatalf("load with fallback: %v", err)
	}
	if !fellBack {
		t.Fatal("fallback not reported")
	}
	if got.Fingerprint() != snap1.Fingerprint() {
		t.Fatal("fallback returned the wrong snapshot")
	}

	// Corrupt the fallback too: now Load fails with both errors.
	if err := os.WriteFile(st.PrevPath(), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Load(); err == nil {
		t.Fatal("load succeeded with both copies corrupt")
	}
}

func TestEmptySnapshotRoundTrip(t *testing.T) {
	empty := &profile.Snapshot{
		Edges:  map[string]*profile.EdgeProfile{},
		Paths:  map[string]*profile.PathProfile{},
		Tables: map[string]*profile.Table{},
	}
	back, err := snapshot.Decode(snapshot.Encode(empty))
	if err != nil {
		t.Fatal(err)
	}
	if back.Fingerprint() != empty.Fingerprint() {
		t.Error("empty snapshot fingerprint changed")
	}
}

// onePath hand-encodes a well-formed snapshot whose one path profile
// holds the single path [id], so a wire edge ID no encoder would
// write can be checked: a profile stores edge IDs as int32.
func onePath(id uint64) []byte {
	b := append([]byte(snapshot.Magic), snapshot.Version, 0)
	b = append(b, 0, 1, 1, 'f', 0, 1, 1) // no edges; one path profile "f", unsaturated, one path of one edge
	b = binary.AppendUvarint(b, id)
	b = append(b, 1, 0) // count 1; no tables
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// TestDecodeEdgeIDAtLimit: the largest int32 edge ID decodes and
// re-encodes to the same bytes (one more is a TestDecodeRejectsDamage
// case).
func TestDecodeEdgeIDAtLimit(t *testing.T) {
	ok := onePath(math.MaxInt32)
	snap, err := snapshot.Decode(ok)
	if err != nil {
		t.Fatalf("edge ID %d rejected: %v", math.MaxInt32, err)
	}
	if ids, _ := snap.Paths["f"].PathAt(0); len(ids) != 1 || ids[0] != math.MaxInt32 {
		t.Fatalf("decoded path %v, want [%d]", ids, math.MaxInt32)
	}
	if !bytes.Equal(snapshot.Encode(snap), ok) {
		t.Error("edge ID at the limit does not re-encode to its bytes")
	}
}

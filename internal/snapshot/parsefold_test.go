package snapshot_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"slices"
	"testing"

	"pathprof/internal/cfg"
	"pathprof/internal/profile"
	"pathprof/internal/snapshot"
)

// wire hand-encodes PPSNAP bodies (no CRC footer) field by field, so
// the differential fuzz target can be seeded with inputs no encoder
// writes: repeated edges and paths, unsorted and repeated table
// cells, out-of-range values.
type wire []byte

func newWire() wire { return append(wire(snapshot.Magic), snapshot.Version, 0) }

func (w wire) uv(vs ...uint64) wire {
	for _, v := range vs {
		w = binary.AppendUvarint(w, v)
	}
	return w
}

func (w wire) iv(v int64) wire { return binary.AppendVarint(w, v) }

func (w wire) append1(b byte) wire { return append(w, b) }

func (w wire) str(s string) wire { return append(w.uv(uint64(len(s))), s...) }

// withCRC appends body's checksum footer.
func withCRC(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(slices.Clip(body), crc32.ChecksumIEEE(body))
}

const max64 = uint64(math.MaxInt64)

// parseFoldSeeds are bodies for FuzzParseFold: the real snapshot, and
// hand-built ones holding what the fold must sum, skip, saturate or
// refuse.
func parseFoldSeeds(t testing.TB) [][]byte {
	real := snapshot.Encode(realSnapshot(t))
	seeds := [][]byte{real[:len(real)-4], newWire().uv(0, 0, 0)}

	// Edges: a key listed three times (two of them saturating
	// together), zero and unit counts, saturated calls; routine "g"
	// new to the aggregate.
	edges := newWire().uv(2).
		str("f").uv(max64, 0, 5).uv(0, 1, 7).uv(0, 1, max64-3).uv(2, 3, 0).uv(0, 1, 9).uv(4, 4, 0).
		str("g").uv(3).append1(1).uv(2).uv(5, 6, 0).uv(6, 7, 1)
	seeds = append(seeds, edges.uv(0, 0))

	// Paths: a path listed twice, a zero-count path, an empty path, a
	// saturating count, and edge IDs at and past the int32 width and
	// past two varint bytes.
	paths := newWire().uv(0).uv(2).
		str("f").append1(0).uv(5).
		uv(2, 0, 1, 3).uv(2, 0, 1, max64).uv(0, 0).uv(1, math.MaxInt32, 0).uv(3, 16384, 200, 127, 1).
		str("h").append1(1).uv(1).uv(1, 5, 2)
	seeds = append(seeds, paths.uv(0))
	seeds = append(seeds, newWire().uv(0, 1).str("f").append1(0).uv(1).uv(1, math.MaxInt32+1, 1).uv(0))

	// Tables: an array table with unsorted, repeated and zero cells;
	// a hash table with unsorted slots, a negative key and a zero
	// value, folding into the aggregate's table of the other kind.
	tables := newWire().uv(0, 0, 3).
		str("f").uv(uint64(profile.ArrayTable), 4, 8, 1, 2, 0).append1(0).uv(5).uv(6, 3, 1, 4, 6, 9, 0, 0, 2, max64).
		str("g").uv(uint64(profile.HashTable), 3, 0, 0, 0, max64).append1(1).uv(3).
		uv(9).iv(-5).uv(2).uv(2).iv(2).uv(0).uv(700).iv(1<<40).uv(8).
		str("t").uv(uint64(profile.HashTable), 1, 0, 0, 0, 0).append1(0).uv(0)
	seeds = append(seeds, tables)

	// Refusals: a repeated routine, a repeated or out-of-range hash
	// slot, an array index past the table, trailing bytes.
	seeds = append(seeds,
		newWire().uv(2).str("f").uv(1, 0, 0).str("f").uv(1, 0, 0).uv(0, 0),
		newWire().uv(0, 0, 1).str("f").uv(uint64(profile.HashTable), 0, 0, 0, 0, 0).append1(0).uv(2).uv(3).iv(1).uv(1).uv(3).iv(2).uv(2),
		newWire().uv(0, 0, 1).str("f").uv(uint64(profile.HashTable), 0, 0, 0, 0, 0).append1(0).uv(1).uv(701).iv(1).uv(1),
		newWire().uv(0, 0, 1).str("f").uv(uint64(profile.ArrayTable), 0, 2, 0, 0, 0).append1(0).uv(1).uv(2, 1),
		newWire().uv(0, 0, 0, 7),
	)
	return seeds
}

// foldBase is the aggregate FuzzParseFold folds into: the real
// snapshot plus routines the seeds name, with counters near the
// ceiling and tables of the other kind.
func foldBase(t testing.TB) *profile.Snapshot {
	agg := realSnapshot(t)
	ep := profile.NewEdgeProfile("f")
	ep.Calls = profile.CounterMax - 1
	ep.Add(0, 1, profile.CounterMax-10)
	ep.Add(1, 2, 3)
	agg.Edges["f"] = ep
	pp := profile.NewPathProfile("f")
	pp.Add(cfg.Path{{ID: 2}}, 4)
	pp.Add(cfg.Path{{ID: 0}, {ID: 1}}, profile.CounterMax-2)
	agg.Paths["f"] = pp
	ht := profile.NewTable(profile.HashTable, 4, 0)
	ht.Add(6, 1)
	ht.Add(3, 2)
	agg.Tables["f"] = ht
	at := profile.NewTable(profile.ArrayTable, 3, 4)
	at.Add(2, 7)
	agg.Tables["g"] = at
	return agg
}

// FuzzParseFold holds the codec to the decoder it replaced
// (oracleDecode): on every input, with its CRC footer recomputed so
// damage reaches the structural checks, Decode and Parse accept or
// refuse exactly as the oracle does and with its error text, Decode's
// snapshot fingerprints and encodes as the oracle's does, and
// FoldInto leaves an empty and a seeded aggregate exactly as
// MergeSnapshot of the oracle's snapshot does, twice over (a fold
// leaves the Upload as it was).
func FuzzParseFold(f *testing.F) {
	for _, s := range parseFoldSeeds(f) {
		f.Add(s)
	}
	base := foldBase(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		data := withCRC(body)
		want, wantErr := oracleDecode(data)
		got, gotErr := snapshot.Decode(data)
		up, parseErr := snapshot.Parse(data)
		if wantErr != nil {
			if gotErr == nil || gotErr.Error() != wantErr.Error() {
				t.Fatalf("Decode error %v, oracle %v", gotErr, wantErr)
			}
			if parseErr == nil || parseErr.Error() != wantErr.Error() {
				t.Fatalf("Parse error %v, oracle %v", parseErr, wantErr)
			}
			if got != nil || up != nil {
				t.Fatal("refused input returned a result")
			}
			return
		}
		if gotErr != nil || parseErr != nil {
			t.Fatalf("oracle accepts; Decode says %v, Parse says %v", gotErr, parseErr)
		}
		sameSnapshot(t, "Decode", got, want)
		for _, start := range []*profile.Snapshot{profile.NewSnapshot(), base} {
			merged, folded := start.Clone(), start.Clone()
			for range 2 {
				merged.MergeSnapshot(want)
				up.FoldInto(folded)
				sameSnapshot(t, "FoldInto", folded, merged)
			}
		}
	})
}

func sameSnapshot(t *testing.T, what string, got, want *profile.Snapshot) {
	t.Helper()
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("%s: fingerprint %016x, want %016x", what, got.Fingerprint(), want.Fingerprint())
	}
	if !bytes.Equal(snapshot.Encode(got), snapshot.Encode(want)) {
		t.Fatalf("%s: encodes differently", what)
	}
}

// TestParseAllocs: Parse allocates per routine and per arena, so
// sixteen times the distinct paths costs no allocation more.
func TestParseAllocs(t *testing.T) {
	const few, many = 256, 4096
	allocs := func(distinct int) float64 {
		data := bitPaths(distinct)
		return testing.AllocsPerRun(5, func() {
			if _, err := snapshot.Parse(data); err != nil {
				t.Fatal(err)
			}
		})
	}
	a, b := allocs(few), allocs(many)
	t.Logf("parse allocs: %d paths %.0f, %d paths %.0f", few, a, many, b)
	if b != a {
		t.Errorf("allocs changed with distinct paths: %.0f at %d vs %.0f at %d", b, many, a, few)
	}
}

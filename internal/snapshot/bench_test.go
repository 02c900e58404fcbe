package snapshot_test

import (
	"runtime"
	"sync"
	"testing"

	"pathprof/internal/cfg"
	"pathprof/internal/core"
	"pathprof/internal/instr"
	"pathprof/internal/profile"
	"pathprof/internal/snapshot"
	"pathprof/internal/vm"
	"pathprof/internal/workloads"
)

var vpr struct {
	once    sync.Once
	agg     *profile.Snapshot   // four emitter runs folded
	uploads []*profile.Snapshot // the emitter runs, decoded
	data    [][]byte            // the emitter runs, encoded
	err     error
}

// vprAggregate builds the profile service's large-aggregate case: the
// vpr workload profiled with its PPP plans under four values of its
// LCG seed global, each run decoded the way an upload arrives and
// folded in order.
func vprAggregate(b testing.TB) (*profile.Snapshot, []*profile.Snapshot) {
	b.Helper()
	vpr.once.Do(func() {
		w, _ := workloads.ByName("vpr")
		st, err := core.NewPipeline(w.Name, w.Source).Stage()
		if err != nil {
			vpr.err = err
			return
		}
		plans, err := st.PlansFor("PPP", instr.PPP(), instr.PlaceSpanning)
		if err != nil {
			vpr.err = err
			return
		}
		gi := st.Prog.GlobalIndex["seed"]
		vpr.agg = profile.NewSnapshot()
		for k := int64(1); k <= 4; k++ {
			prog := *st.Prog
			prog.GlobalInit = append([]int64(nil), st.Prog.GlobalInit...)
			prog.GlobalInit[gi] = k * 7919
			run, err := vm.Run(&prog, vm.Options{CollectEdges: true, CollectPaths: true, Plans: plans})
			if err != nil {
				vpr.err = err
				return
			}
			data := snapshot.Encode(run.Snapshot())
			up, err := snapshot.Decode(data)
			if err != nil {
				vpr.err = err
				return
			}
			vpr.data = append(vpr.data, data)
			vpr.uploads = append(vpr.uploads, up)
			vpr.agg.MergeSnapshot(up)
		}
	})
	if vpr.err != nil {
		b.Fatal(vpr.err)
	}
	return vpr.agg, vpr.uploads
}

// BenchmarkDecodeAggregate decodes a vpr-sized aggregate, the work of
// every ingest handler's upload decode and of a client reading
// /v1/profiles.
func BenchmarkDecodeAggregate(b *testing.B) {
	agg, _ := vprAggregate(b)
	data := snapshot.Encode(agg)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := snapshot.Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

// vprUploads returns the vpr emitter runs as uploads arrive: encoded,
// and parsed.
func vprUploads(b testing.TB) ([][]byte, []*snapshot.Upload) {
	vprAggregate(b)
	ups := make([]*snapshot.Upload, len(vpr.data))
	for i, data := range vpr.data {
		var err error
		if ups[i], err = snapshot.Parse(data); err != nil {
			b.Fatal(err)
		}
	}
	return vpr.data, ups
}

// BenchmarkParseUpload parses one vpr upload (about 88 KB), the
// ingest handler's admission work.
func BenchmarkParseUpload(b *testing.B) {
	data, _ := vprUploads(b)
	b.SetBytes(int64(len(data[0])))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := snapshot.Parse(data[i%len(data)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFoldUpload is the committer's merge for a batch of one
// upload: clone the live vpr aggregate and fold the parsed upload into
// the copy.
func BenchmarkFoldUpload(b *testing.B) {
	agg, _ := vprAggregate(b)
	_, ups := vprUploads(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next := agg.Clone()
		ups[i%len(ups)].FoldInto(next)
	}
}

// BenchmarkCommitClone is the committer's in-memory work for a batch
// of one upload plus a checkpoint's encode: clone the live aggregate,
// fold the parsed upload, encode the result and fingerprint it for the
// ack.
func BenchmarkCommitClone(b *testing.B) {
	agg, _ := vprAggregate(b)
	_, ups := vprUploads(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next := agg.Clone()
		ups[i%len(ups)].FoldInto(next)
		_ = snapshot.Encode(next)
		_ = next.Fingerprint()
	}
}

// TestParseAllocsUpload holds a vpr upload's Parse (82 946 path edges
// in 1 287 paths) to at most 100 allocations and under 0.5 MB, where
// building it as a snapshot (Decode) costs about 270 and 2.6 MB.
func TestParseAllocsUpload(t *testing.T) {
	data, _ := vprUploads(t)
	const runs = 10
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := snapshot.Parse(data[0]); err != nil {
			t.Fatal(err)
		}
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if _, err := snapshot.Parse(data[0]); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perOp := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("vpr upload (%d bytes): Parse %.0f allocs, %.0f bytes", len(data[0]), allocs, perOp)
	if allocs > 100 {
		t.Errorf("Parse allocates %.0f times, want at most 100", allocs)
	}
	if perOp >= 0.5e6 {
		t.Errorf("Parse allocates %.0f bytes, want under 0.5 MB", perOp)
	}
}

// BenchmarkFingerprintAggregate fingerprints a vpr-sized aggregate,
// the one whole-aggregate term left on the profile service's ack path.
func BenchmarkFingerprintAggregate(b *testing.B) {
	agg, _ := vprAggregate(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fpSink = agg.Fingerprint()
	}
}

var fpSink uint64

// manyPaths encodes one routine holding distinct paths of length l,
// over sixteen edge IDs (path i spells i's low eight bits, two IDs per
// bit position), each with count i+1.
func manyPaths(distinct, l int) []byte {
	s := profile.NewSnapshot()
	pp := profile.NewPathProfile("f")
	for i := 0; i < distinct; i++ {
		p := make(cfg.Path, l)
		for k := range p {
			p[k] = &cfg.DAGEdge{ID: 2*(k%8) + (i>>(k%8))&1}
		}
		pp.Add(p, int64(i+1))
	}
	s.Paths["f"] = pp
	return snapshot.Encode(s)
}

// TestDecodeAllocsFollowDistinctPaths: decoding allocates per distinct
// path (its interned copy) and per distinct edge ID, not per path
// edge — sixteen times the edges costs at most a few more allocations
// (slice growth), where one placeholder edge per path edge would cost
// 60k more.
func TestDecodeAllocsFollowDistinctPaths(t *testing.T) {
	const distinct = 256
	allocs := func(l int) float64 {
		data := manyPaths(distinct, l)
		return testing.AllocsPerRun(5, func() {
			if _, err := snapshot.Decode(data); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(16), allocs(256)
	t.Logf("decode allocs: %d paths x 16 edges %.0f, x 256 edges %.0f", distinct, short, long)
	if short > 3*distinct {
		t.Errorf("%d distinct paths of 16 edges: %.0f allocs, want <= %d", distinct, short, 3*distinct)
	}
	if long > short+32 {
		t.Errorf("allocs grew with path length: %.0f at 256 edges vs %.0f at 16", long, short)
	}
}

// bitPaths encodes one routine holding distinct paths of sixteen
// edges over 32 edge IDs (path i spells i's low sixteen bits, two IDs
// per bit position), each with count 1.
func bitPaths(distinct int) []byte {
	s := profile.NewSnapshot()
	pp := profile.NewPathProfile("f")
	for i := 0; i < distinct; i++ {
		p := make(cfg.Path, 16)
		for k := range p {
			p[k] = &cfg.DAGEdge{ID: 2*k + (i>>k)&1}
		}
		pp.Add(p, 1)
	}
	s.Paths["f"] = pp
	return snapshot.Encode(s)
}

// TestDecodeAllocsIgnoreDistinctPaths: interning a decoded path
// appends its edge IDs to the profile's arena, so sixteen times the
// distinct paths costs only the arenas' extra growth steps (a
// logarithmic few), not an allocation per path: 3 840 more paths may
// cost at most 60 more allocations.
func TestDecodeAllocsIgnoreDistinctPaths(t *testing.T) {
	const few, many = 256, 4096
	allocs := func(distinct int) float64 {
		data := bitPaths(distinct)
		return testing.AllocsPerRun(5, func() {
			if _, err := snapshot.Decode(data); err != nil {
				t.Fatal(err)
			}
		})
	}
	a, b := allocs(few), allocs(many)
	t.Logf("decode allocs: %d paths %.0f, %d paths %.0f", few, a, many, b)
	if b-a > (many-few)/64 {
		t.Errorf("allocs grew with distinct paths: %.0f at %d vs %.0f at %d", b, many, a, few)
	}
}

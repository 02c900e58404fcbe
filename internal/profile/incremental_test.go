package profile

import (
	"math/rand"
	"reflect"
	"testing"

	"pathprof/internal/cfg"
)

// fakeEdges builds n distinct DAG edges (only IDs matter to the trie).
func fakeEdges(n int) []*cfg.DAGEdge {
	out := make([]*cfg.DAGEdge, n)
	for i := range out {
		out[i] = &cfg.DAGEdge{ID: i}
	}
	return out
}

// edgeIDs returns p's edge IDs, the form executors record paths in.
func edgeIDs(p cfg.Path) []int32 {
	ids := make([]int32, len(p))
	for i, e := range p {
		ids[i] = int32(e.ID)
	}
	return ids
}

// TestStepAddAtMatchesAdd drives random path streams through the
// incremental cursor API and the one-shot Add, asserting identical
// interned order, counts, and fingerprints.
func TestStepAddAtMatchesAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	edges := fakeEdges(12)
	var stream []cfg.Path
	for i := 0; i < 500; i++ {
		p := make(cfg.Path, rng.Intn(6))
		for j := range p {
			p[j] = edges[rng.Intn(len(edges))]
		}
		stream = append(stream, p)
	}

	batch := NewPathProfile("f")
	inc := NewPathProfile("f")
	for _, p := range stream {
		batch.Add(p, 1)
		cur := inc.Root()
		for _, e := range p {
			cur = inc.Step(cur, int32(e.ID))
		}
		inc.AddAt(cur, edgeIDs(p), 1)
	}
	if !reflect.DeepEqual(batch.Paths(), inc.Paths()) {
		t.Fatal("incremental recording diverges from Add")
	}
	a := (&Snapshot{Paths: map[string]*PathProfile{"f": batch}}).Fingerprint()
	b := (&Snapshot{Paths: map[string]*PathProfile{"f": inc}}).Fingerprint()
	if a != b {
		t.Fatalf("fingerprints diverge: %x vs %x", a, b)
	}
}

// TestStepInterleavedSuspension models suspended frames (calls): two
// paths grow their trie cursors interleaved, so trie nodes are created
// in a different order than Add would create them — interned path IDs
// and fingerprints must still match, because interning happens at
// completion.
func TestStepInterleavedSuspension(t *testing.T) {
	edges := fakeEdges(8)
	pa := cfg.Path{edges[0], edges[1], edges[2]}
	pb := cfg.Path{edges[3], edges[4]}

	inc := NewPathProfile("f")
	ca, cb := inc.Root(), inc.Root()
	// Interleave the walks; complete b first, then a.
	ca = inc.Step(ca, int32(pa[0].ID))
	cb = inc.Step(cb, int32(pb[0].ID))
	ca = inc.Step(ca, int32(pa[1].ID))
	cb = inc.Step(cb, int32(pb[1].ID))
	ca = inc.Step(ca, int32(pa[2].ID))
	inc.AddAt(cb, edgeIDs(pb), 1)
	inc.AddAt(ca, edgeIDs(pa), 1)

	batch := NewPathProfile("f")
	batch.Add(pb, 1)
	batch.Add(pa, 1)

	if !reflect.DeepEqual(batch.Paths(), inc.Paths()) {
		t.Fatalf("interleaved interning diverges:\n%v\nvs\n%v", inc.Paths(), batch.Paths())
	}
	a := (&Snapshot{Paths: map[string]*PathProfile{"f": batch}}).Fingerprint()
	b := (&Snapshot{Paths: map[string]*PathProfile{"f": inc}}).Fingerprint()
	if a != b {
		t.Fatalf("fingerprints diverge: %x vs %x", a, b)
	}
}

// TestStepAllocFree: after warmup the cursor walk performs zero
// allocations per recorded path.
func TestStepAllocFree(t *testing.T) {
	edges := fakeEdges(4)
	p := cfg.Path{edges[0], edges[1], edges[2], edges[3]}
	ids := edgeIDs(p)
	pp := NewPathProfile("f")
	record := func() {
		cur := pp.Root()
		for _, id := range ids {
			cur = pp.Step(cur, id)
		}
		pp.AddAt(cur, ids, 1)
	}
	record() // warm: grow nodes, intern
	if allocs := testing.AllocsPerRun(100, record); allocs != 0 {
		t.Fatalf("steady-state incremental recording allocates %.1f times per path", allocs)
	}
}

// TestIncArrayMatchesInc pins IncArray to Inc's semantics across the
// in-range, saturating, and out-of-range cases.
func TestIncArrayMatchesInc(t *testing.T) {
	mk := func() (*Table, *Table) {
		a := NewTable(ArrayTable, 4, 6)
		b := NewTable(ArrayTable, 4, 6)
		// Pre-saturate one slot to exercise the clamp.
		a.Add(2, CounterMax)
		b.Add(2, CounterMax)
		return a, b
	}
	a, b := mk()
	idxs := []int64{0, 1, 2, 2, 5, -1, 6, 3, 0}
	for _, idx := range idxs {
		a.Inc(idx)
		b.IncArray(idx)
	}
	if !reflect.DeepEqual(a.State(), b.State()) {
		t.Fatalf("IncArray state diverges from Inc:\n%+v\nvs\n%+v", a.State(), b.State())
	}
	if !b.Saturated {
		t.Fatal("saturating increment did not set Saturated")
	}
	if b.Drops != 2 {
		t.Fatalf("out-of-range increments recorded %d drops, want 2", b.Drops)
	}
}

package profile_test

import (
	"testing"

	"pathprof/internal/cfg"
	"pathprof/internal/cfg/cfgtest"
	"pathprof/internal/profile"
)

// TestEdgeProfileSaturates drives edge counters through Add and
// BumpSlot to CounterMax and checks they clamp instead of wrapping.
func TestEdgeProfileSaturates(t *testing.T) {
	ep := profile.NewEdgeProfile("f")
	ep.Add(0, 1, profile.CounterMax-1)
	if ep.Saturated {
		t.Fatal("saturated below the ceiling")
	}
	ep.Add(0, 1, 5)
	if !ep.Saturated {
		t.Fatal("no saturation flag after clamping add")
	}
	if got := ep.Get(0, 1); got != profile.CounterMax {
		t.Errorf("Get = %d, want CounterMax", got)
	}

	dense := profile.NewEdgeProfile("g")
	s := dense.Slot(2, 3)
	dense.BumpSlot(s)
	// Push a bumped slot past the ceiling with Add: the counter and
	// the materialized views must clamp rather than wrap negative.
	dense.Add(2, 3, profile.CounterMax-1)
	if got := dense.Get(2, 3); got != profile.CounterMax {
		t.Errorf("combined Get = %d, want CounterMax", got)
	}
	if got := dense.Freq()[profile.EdgeKey{Src: 2, Dst: 3}]; got != profile.CounterMax {
		t.Errorf("combined Freq = %d, want CounterMax", got)
	}
}

// TestEdgeProfileMergeSaturationOrderIndependent merges saturating
// profiles in both orders; saturating addition of non-negative values
// is commutative, so the results must agree exactly.
func TestEdgeProfileMergeSaturationOrderIndependent(t *testing.T) {
	mk := func(v int64) *profile.EdgeProfile {
		ep := profile.NewEdgeProfile("f")
		ep.Calls = 1
		ep.Add(0, 1, v)
		return ep
	}
	a1, b1 := mk(profile.CounterMax-10), mk(100)
	a1.Merge(b1)
	b2, a2 := mk(100), mk(profile.CounterMax-10)
	b2.Merge(a2)
	if x, y := a1.Get(0, 1), b2.Get(0, 1); x != y || x != profile.CounterMax {
		t.Errorf("merge order changed saturated count: %d vs %d", x, y)
	}
	if !a1.Saturated || !b2.Saturated {
		t.Error("saturation flag lost in merge")
	}
}

// TestPathProfileSaturates clamps a path count at the ceiling.
func TestPathProfileSaturates(t *testing.T) {
	g := cfg.New("f")
	a, b := g.AddBlock("a"), g.AddBlock("b")
	g.Entry, g.Exit = a, b
	cfgtest.Connect(g, a, b)
	d, err := cfg.BuildDAG(g)
	if err != nil {
		t.Fatal(err)
	}
	p := cfg.Path{d.Edges[0]}

	pp := profile.NewPathProfile("f")
	pp.Add(p, profile.CounterMax-2)
	pp.Add(p, profile.CounterMax-2)
	if !pp.Saturated {
		t.Fatal("no saturation flag")
	}
	if got := pp.Get(p); got != profile.CounterMax {
		t.Errorf("count = %d, want CounterMax", got)
	}
	if got := pp.Total(); got != profile.CounterMax {
		t.Errorf("total = %d, want CounterMax", got)
	}

	other := profile.NewPathProfile("f")
	other.Add(p, 1)
	other.Merge(pp)
	if !other.Saturated || other.Get(p) != profile.CounterMax {
		t.Errorf("merge dropped saturation: sat=%v count=%d", other.Saturated, other.Get(p))
	}
}

// TestTableSaturates clamps array counters, hash values, and the
// Lost/Cold/Drops accounting at the ceiling.
func TestTableSaturates(t *testing.T) {
	at := profile.NewTable(profile.ArrayTable, 4, 8)
	at.Add(2, profile.CounterMax-1)
	at.Add(2, 3)
	if !at.Saturated {
		t.Fatal("array table: no saturation flag")
	}
	hot := at.HotCounts()
	if len(hot) != 1 || hot[0].Count != profile.CounterMax {
		t.Errorf("array hot counts = %v, want one CounterMax entry", hot)
	}

	ht := profile.NewTable(profile.HashTable, 4, 0)
	ht.Add(1, profile.CounterMax-1)
	ht.Add(1, 2)
	if !ht.Saturated {
		t.Fatal("hash table: no saturation flag")
	}
	hot = ht.HotCounts()
	if len(hot) != 1 || hot[0].Count != profile.CounterMax {
		t.Errorf("hash hot counts = %v, want one CounterMax entry", hot)
	}

	// Lost saturates: fill every slot (key k occupies slot k), then a
	// fresh key has nowhere to go.
	lt := profile.NewTable(profile.HashTable, 1000000, 0)
	for k := int64(0); k < profile.HashSlots; k++ {
		lt.Add(k, 1)
	}
	lt.Add(10000, profile.CounterMax-1)
	lt.Add(10000, profile.CounterMax-1)
	if lt.Lost != profile.CounterMax || !lt.Saturated {
		t.Errorf("lost = %d sat=%v, want CounterMax/true", lt.Lost, lt.Saturated)
	}

	ct := profile.NewTable(profile.ArrayTable, 2, 4)
	ct.Cold = profile.CounterMax
	ct.BumpCold()
	if ct.Cold != profile.CounterMax || !ct.Saturated {
		t.Errorf("cold = %d sat=%v, want CounterMax/true", ct.Cold, ct.Saturated)
	}
}

// TestSnapshotSaturatedRoutines checks the merged snapshot surfaces
// exactly the routines that clamped, and that the fingerprint of a
// saturated snapshot differs from an unsaturated one with the same
// counter values.
func TestSnapshotSaturatedRoutines(t *testing.T) {
	col := profile.NewCollector(2)
	// Shard 0: routine "hot" saturates its edge profile.
	col.Shard(0).EdgeProfile("hot").Add(0, 1, profile.CounterMax)
	col.Shard(1).EdgeProfile("hot").Add(0, 1, 1)
	// Routine "ok" stays finite.
	col.Shard(0).EdgeProfile("ok").Add(0, 1, 7)
	snap := col.Merge()

	got := snap.SaturatedRoutines()
	if len(got) != 1 || got[0] != "hot" {
		t.Fatalf("SaturatedRoutines = %v, want [hot]", got)
	}
	if len(snap.SaturatedRoutines()) == 0 {
		t.Error("no saturated routine")
	}

	// Same observable counts, no saturation: fingerprints must differ,
	// because the saturated profile is only a lower bound.
	ref := profile.NewCollector(1)
	ref.Shard(0).EdgeProfile("hot").Add(0, 1, profile.CounterMax)
	ref.Shard(0).EdgeProfile("ok").Add(0, 1, 7)
	if snap.Fingerprint() == ref.Merge().Fingerprint() {
		t.Error("saturated and exact snapshots share a fingerprint")
	}
}

// TestMergeShardsSubset checks that merging a subset of shards equals a
// collector that only ever held those shards — the quarantine contract.
func TestMergeShardsSubset(t *testing.T) {
	fill := func(sh *profile.Shard, seed int64) {
		ep := sh.EdgeProfile("f")
		ep.Calls = seed
		ep.Add(0, 1, seed*3)
		ep.Add(1, 2, seed*5)
		tab := sh.Table("f", profile.HashTable, 10, 0)
		tab.Add(seed%7, seed)
		tab.Add(3, 1)
	}
	full := profile.NewCollector(4)
	for i := 0; i < 4; i++ {
		fill(full.Shard(i), int64(i+1))
	}
	include := []bool{true, false, true, false}
	sub := full.MergeShards(include)

	ref := profile.NewCollector(2)
	fill(ref.Shard(0), 1)
	fill(ref.Shard(1), 3)
	if sub.Fingerprint() != ref.Merge().Fingerprint() {
		t.Error("subset merge differs from a collector without the excluded shards")
	}
}

// TestTableStateRoundTrip serializes and rebuilds both table kinds and
// compares every observable through the snapshot fingerprint.
func TestTableStateRoundTrip(t *testing.T) {
	at := profile.NewTable(profile.ArrayTable, 4, 8)
	at.Add(0, 3)
	at.Add(5, 2) // poison region
	at.Cold = 9
	at.Add(99, 1) // drop
	at.Add(1, profile.CounterMax)
	at.Add(1, 1) // saturate

	ht := profile.NewTable(profile.HashTable, 100, 0)
	for k := int64(0); k < 40; k++ {
		ht.Add(k*37, k+1)
	}
	ht.Add(1, 1)
	ht.Add(1+profile.HashSlots, 1)
	ht.Add(1+2*profile.HashSlots, 1)
	ht.Add(1+3*profile.HashSlots, 4) // lost

	for name, tab := range map[string]*profile.Table{"array": at, "hash": ht} {
		back, err := profile.NewTableFromState(tab.State())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		a := &profile.Snapshot{Tables: map[string]*profile.Table{"f": tab}}
		b := &profile.Snapshot{Tables: map[string]*profile.Table{"f": back}}
		if a.Fingerprint() != b.Fingerprint() {
			t.Errorf("%s: state round trip changed the table", name)
		}
	}

	// Malformed states are rejected.
	bad := at.State()
	bad.Arr = bad.Arr[:3]
	if _, err := profile.NewTableFromState(bad); err == nil {
		t.Error("short array state accepted")
	}
	badH := ht.State()
	badH.Slots[0] = profile.HashSlots + 5
	if _, err := profile.NewTableFromState(badH); err == nil {
		t.Error("out-of-range slot accepted")
	}
	badH2 := ht.State()
	badH2.Slots[1] = badH2.Slots[0]
	if _, err := profile.NewTableFromState(badH2); err == nil {
		t.Error("repeated slot accepted")
	}
}

package profile_test

import (
	"sync"
	"testing"

	"pathprof/internal/profile"
)

// replica replays one synthetic "run" into a shard: edge bumps through
// registered slots, path adds, and array+hash table increments. The
// stream is a function of the replica index so sequential-vs-sharded
// comparisons exercise varied (not just repeated) inputs.
func replica(sh *profile.Shard, i int) {
	ep := sh.EdgeProfile("f")
	s01 := ep.Slot(0, 1)
	s12 := ep.Slot(1, 2)
	for k := 0; k < 10+i; k++ {
		ep.BumpSlot(s01)
		if k%2 == 0 {
			ep.BumpSlot(s12)
		}
	}
	ep.Calls++

	pp := sh.PathProfile("f")
	pp.Add(path(1, 2, 3), int64(1+i))
	pp.Add(path(1, 4), 2)
	if i >= 3 {
		pp.Add(path(9, 9), 1) // first appears in a later replica
	}

	at := sh.Table("f", profile.ArrayTable, 4, 8)
	at.Inc(int64(i % 6)) // 4,5 land in the poison region
	ht := sh.Table("g", profile.HashTable, 64, 0)
	for k := 0; k < 8; k++ {
		ht.Inc(int64(k)) // identical key order per replica
	}
	ht.Inc(100) // cold (>= N)
}

// runPartitioned replays n replicas block-partitioned over par shards,
// mirroring vm.RunReplicated's assignment, and returns the merged
// snapshot.
func runPartitioned(n, par int) *profile.Snapshot {
	col := profile.NewCollector(par)
	for w := 0; w < par; w++ {
		sh := col.Shard(w)
		for i := w * n / par; i < (w+1)*n/par; i++ {
			replica(sh, i)
		}
	}
	return col.Merge()
}

// TestMergeDeterministicAcrossShardCounts is the core guarantee: the
// merged snapshot of a block-partitioned run is bit-identical to the
// sequential (one-shard) run at every worker count.
func TestMergeDeterministicAcrossShardCounts(t *testing.T) {
	const n = 12
	want := runPartitioned(n, 1)
	wantFP := want.Fingerprint()
	for _, par := range []int{2, 3, 4, 6, 12} {
		got := runPartitioned(n, par)
		if fp := got.Fingerprint(); fp != wantFP {
			t.Errorf("par=%d: fingerprint %#x != sequential %#x", par, fp, wantFP)
		}
	}

	// Spot-check the merged contents against hand sums.
	ep := want.Edges["f"]
	var e01 int64
	for i := 0; i < n; i++ {
		e01 += int64(10 + i)
	}
	if got := ep.Get(0, 1); got != e01 {
		t.Errorf("edge 0->1 = %d, want %d", got, e01)
	}
	if ep.Calls != n {
		t.Errorf("calls = %d, want %d", ep.Calls, n)
	}
	pp := want.Paths["f"]
	var p123 int64
	for i := 0; i < n; i++ {
		p123 += int64(1 + i)
	}
	if got := pp.Get(path(1, 2, 3)); got != p123 {
		t.Errorf("path(1,2,3) = %d, want %d", got, p123)
	}
	// First-seen order must match the sequential stream: (1,2,3) then
	// (1,4) then the late-appearing (9,9).
	order := pp.Paths()
	if len(order) != 3 || order[2].Path[0].ID != 9 {
		t.Errorf("first-seen order broken: %+v", order)
	}
	ht := want.Tables["g"]
	if ht.ColdTotal() != n || ht.Lost != 0 {
		t.Errorf("hash cold=%d lost=%d, want %d/0", ht.ColdTotal(), ht.Lost, n)
	}
	at := want.Tables["f"]
	if at.ColdTotal() != 4 { // replicas 4,5,10,11 hit indices 4,5
		t.Errorf("array cold = %d, want 4", at.ColdTotal())
	}
}

// TestCollectorConcurrent drives 8 goroutines through one Collector,
// one shard each — under -race this is the no-synchronization-needed
// proof — and checks the merged totals.
func TestCollectorConcurrent(t *testing.T) {
	const workers, perWorker = 8, 50
	col := profile.NewCollector(workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sh := col.Shard(w)
			ep := sh.EdgeProfile("f")
			slot := ep.Slot(0, 1)
			pp := sh.PathProfile("f")
			tab := sh.Table("f", profile.HashTable, 16, 0)
			for i := 0; i < perWorker; i++ {
				ep.BumpSlot(slot)
				pp.Add(path(1, 2), 1)
				tab.Inc(int64(i % 4))
			}
		}(w)
	}
	wg.Wait()
	snap := col.Merge()
	if got := snap.Edges["f"].Get(0, 1); got != workers*perWorker {
		t.Errorf("edge total = %d, want %d", got, workers*perWorker)
	}
	if got := snap.Paths["f"].Total(); got != workers*perWorker {
		t.Errorf("path total = %d, want %d", got, workers*perWorker)
	}
	var hot int64
	for _, ic := range snap.Tables["f"].HotCounts() {
		hot += ic.Count
	}
	if hot != workers*perWorker {
		t.Errorf("table total = %d, want %d", hot, workers*perWorker)
	}
	// Merge again after more recording: shards must stay usable.
	col.Shard(0).EdgeProfile("f").Bump(0, 1)
	if got := col.Merge().Edges["f"].Get(0, 1); got != workers*perWorker+1 {
		t.Errorf("re-merge total = %d, want %d", got, workers*perWorker+1)
	}
}

// TestShardFastPathsZeroAllocs locks in that recording into a shard is
// exactly the single-threaded fast path: no allocation per edge bump,
// per repeat path add, or per table increment.
func TestShardFastPathsZeroAllocs(t *testing.T) {
	col := profile.NewCollector(2)
	sh := col.Shard(1)
	ep := sh.EdgeProfile("f")
	slot := ep.Slot(3, 4)
	pp := sh.PathProfile("f")
	p := path(1, 2, 3, 4)
	pp.Add(p, 1)
	tab := sh.Table("f", profile.ArrayTable, 8, 16)

	if a := testing.AllocsPerRun(100, func() { ep.BumpSlot(slot) }); a != 0 {
		t.Errorf("shard BumpSlot allocates %.1f times, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { pp.Add(p, 1) }); a != 0 {
		t.Errorf("shard repeat Add allocates %.1f times, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { tab.Inc(5) }); a != 0 {
		t.Errorf("shard table Inc allocates %.1f times, want 0", a)
	}
}

func TestTableMergeMixedAndOutOfRange(t *testing.T) {
	a := profile.NewTable(profile.ArrayTable, 4, 4)
	b := profile.NewTable(profile.ArrayTable, 4, 8)
	b.Inc(2)
	b.Inc(6) // in b's array but beyond a's
	b.Cold = 3
	a.Merge(b)
	if a.ColdTotal() != 3 || a.Drops != 1 {
		t.Errorf("cold=%d drops=%d, want 3/1", a.ColdTotal(), a.Drops)
	}
	hot := a.HotCounts()
	if len(hot) != 1 || hot[0].Index != 2 || hot[0].Count != 1 {
		t.Errorf("hot = %+v", hot)
	}
}

func BenchmarkCollectorMerge(b *testing.B) {
	col := profile.NewCollector(8)
	for w := 0; w < 8; w++ {
		for i := 0; i < 4; i++ {
			replica(col.Shard(w), w*4+i)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col.Merge()
	}
}

// TestSnapshotRoutines counts the union of the routine names a
// snapshot holds profiles of, whichever kinds of profile it holds.
func TestSnapshotRoutines(t *testing.T) {
	s := profile.NewSnapshot()
	if n := s.Routines(); n != 0 {
		t.Fatalf("empty snapshot: %d routines", n)
	}
	s.Tables["a"] = profile.NewTable(profile.ArrayTable, 4, 4)
	s.Tables["b"] = profile.NewTable(profile.ArrayTable, 4, 4)
	if n := s.Routines(); n != 2 {
		t.Errorf("tables only: %d routines, want 2", n)
	}
	s.Edges["b"] = profile.NewEdgeProfile("b")
	s.Paths["b"] = profile.NewPathProfile("b")
	s.Paths["c"] = profile.NewPathProfile("c")
	s.Edges["d"] = profile.NewEdgeProfile("d")
	if n := s.Routines(); n != 4 {
		t.Errorf("mixed: %d routines, want 4 (a, b, c, d)", n)
	}
}

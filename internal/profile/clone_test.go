package profile_test

import (
	"encoding/binary"
	"hash/fnv"
	"sort"
	"testing"

	"pathprof/internal/profile"
	"pathprof/internal/snapshot"
)

// cloneBase builds a snapshot with every backing Clone must copy:
// edge slots registered by Slot and by Add, trie nodes whose overflow
// siblings have spare capacity (kid0 plus three in rest, capacity
// four), and array and hash tables.
func cloneBase() *profile.Snapshot {
	s := profile.NewSnapshot()
	ep := profile.NewEdgeProfile("f")
	ep.BumpSlot(ep.Slot(0, 1))
	ep.BumpSlot(ep.Slot(1, 2))
	ep.BumpSlot(ep.Slot(3, 4)) // three slots: spare capacity
	ep.Add(1, 2, 4)            // an edge Slot registered
	ep.Add(2, 3, 9)
	ep.Calls = 3
	s.Edges["f"] = ep
	pp := profile.NewPathProfile("f")
	for id := 1; id <= 4; id++ {
		pp.Add(path(0, id), int64(id))
	}
	pp.Add(path(9, 1), 1) // a second node with overflow siblings,
	pp.Add(path(9, 2), 2) // stored after the first
	s.Paths["f"] = pp
	at := profile.NewTable(profile.ArrayTable, 4, 8)
	at.Add(1, 5)
	s.Tables["f"] = at
	ht := profile.NewTable(profile.HashTable, 1000, 0)
	ht.Add(7, 2)
	s.Tables["g"] = ht
	return s
}

// cloneDelta is a fold that writes every cloned backing: counts of
// existing paths, edges and hash keys first (before anything grows
// and reallocates), then a new trie sibling under the node with spare
// overflow capacity and a path through the next node's siblings, a
// new hash key, and a new routine.
func cloneDelta(sib int) *profile.Snapshot {
	d := profile.NewSnapshot()
	pp := profile.NewPathProfile("f")
	pp.Add(path(0, 1), 1)
	pp.Add(path(0, sib), 11)
	pp.Add(path(9, 2), 1)
	d.Paths["f"] = pp
	ep := profile.NewEdgeProfile("f")
	ep.Add(0, 1, 2)
	ep.Add(5, 6, int64(sib))
	d.Edges["f"] = ep
	ht := profile.NewTable(profile.HashTable, 1000, 0)
	ht.Add(7, 1)
	ht.Add(int64(100+701*sib), 3) // every sib probes slot 100 first
	d.Tables["g"] = ht
	at := profile.NewTable(profile.ArrayTable, 4, 8)
	at.Add(2, 1)
	d.Tables["f"] = at
	d.Edges["h"] = profile.NewEdgeProfile("h")
	d.Edges["h"].Add(0, 1, 1)
	return d
}

// TestCloneIsIndependent: folds into two clones of one aggregate —
// new trie siblings, hash keys, array counts and dense slots — leave
// the original and each other untouched, each clone ends up exactly
// where the same fold into a decoded copy of the original does, and
// later writes to the original leave the clones alone.
func TestCloneIsIndependent(t *testing.T) {
	orig := cloneBase()
	origFP := orig.Fingerprint()
	c1, c2 := orig.Clone(), orig.Clone()
	if c1.Fingerprint() != origFP {
		t.Fatal("clone fingerprint differs from the original")
	}
	c1.MergeSnapshot(cloneDelta(5))
	c2.MergeSnapshot(cloneDelta(6))
	// A bump of an existing dense slot and a new slot, on one clone.
	c1.Edges["f"].BumpSlot(0)
	c1.Edges["f"].BumpSlot(c1.Edges["f"].Slot(7, 8))

	if orig.Fingerprint() != origFP {
		t.Fatal("folding into a clone changed the original")
	}
	if got := orig.Edges["f"].Get(7, 8); got != 0 {
		t.Errorf("a clone's new slot shows in the original: %d", got)
	}
	for _, sib := range []int{5, 6} {
		if got := orig.Paths["f"].Get(path(0, sib)); got != 0 {
			t.Errorf("a clone's new path shows in the original: %d", got)
		}
	}
	for i, tc := range []struct {
		clone *profile.Snapshot
		sib   int
		slots bool
	}{{c1, 5, true}, {c2, 6, false}} {
		ref, err := snapshot.Decode(snapshot.Encode(orig))
		if err != nil {
			t.Fatal(err)
		}
		ref.MergeSnapshot(cloneDelta(tc.sib))
		if tc.slots {
			ref.Edges["f"].Add(7, 8, 1)
			ref.Edges["f"].Add(0, 1, 1)
		}
		if got, want := tc.clone.Fingerprint(), ref.Fingerprint(); got != want {
			t.Errorf("clone %d: fingerprint %016x, decoded-copy fold %016x", i+1, got, want)
		}
		if got := tc.clone.Paths["f"].Get(path(0, tc.sib)); got != 11 {
			t.Errorf("clone %d: new sibling count %d, want 11", i+1, got)
		}
	}

	fp1, fp2 := c1.Fingerprint(), c2.Fingerprint()
	orig.MergeSnapshot(cloneDelta(7))
	orig.Edges["f"].BumpSlot(orig.Edges["f"].Slot(9, 9))
	if c1.Fingerprint() != fp1 || c2.Fingerprint() != fp2 {
		t.Error("writing to the original changed a clone")
	}
}

// referenceFingerprint is the fingerprint's definition: FNV-1a through
// hash/fnv over the materialized Freq map in sorted key order.
func referenceFingerprint(s *profile.Snapshot) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	wi := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	ws := func(str string) {
		wi(int64(len(str)))
		h.Write([]byte(str))
	}
	for _, fn := range sortedNames(s.Edges) {
		ws("E")
		ws(fn)
		ep := s.Edges[fn]
		wi(ep.Calls)
		if ep.Saturated {
			ws("sat")
		}
		freq := ep.Freq()
		keys := make([]profile.EdgeKey, 0, len(freq))
		for k := range freq {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].Src != keys[j].Src {
				return keys[i].Src < keys[j].Src
			}
			return keys[i].Dst < keys[j].Dst
		})
		for _, k := range keys {
			wi(int64(k.Src))
			wi(int64(k.Dst))
			wi(freq[k])
		}
	}
	for _, fn := range sortedNames(s.Paths) {
		ws("P")
		ws(fn)
		pp := s.Paths[fn]
		if pp.Saturated {
			ws("sat")
		}
		for _, pc := range pp.Paths() {
			wi(int64(len(pc.Path)))
			for _, e := range pc.Path {
				wi(int64(e.ID))
			}
			wi(pc.Count)
		}
	}
	for _, fn := range sortedNames(s.Tables) {
		ws("T")
		ws(fn)
		st := s.Tables[fn].State()
		wi(int64(st.Kind))
		wi(st.N)
		wi(st.Lost)
		wi(st.Cold)
		wi(st.Drops)
		if st.Saturated {
			ws("sat")
		}
		if st.Kind == profile.ArrayTable {
			for i, v := range st.Arr {
				if v != 0 {
					wi(int64(i))
					wi(v)
				}
			}
			continue
		}
		for i, slot := range st.Slots {
			wi(int64(slot))
			wi(st.Keys[i])
			wi(st.Vals[i])
		}
	}
	return h.Sum64()
}

// TestFingerprintMatchesReference: the inlined FNV-1a and the sorted
// walk over both edge backings hash exactly the reference byte
// stream, saturation markers and both table kinds included.
func TestFingerprintMatchesReference(t *testing.T) {
	s := cloneBase()
	s.MergeSnapshot(cloneDelta(5))
	sat := profile.NewEdgeProfile("sat")
	sat.Add(0, 1, profile.CounterMax)
	sat.Add(0, 1, 1)
	s.Edges["sat"] = sat
	s.Paths["empty"] = profile.NewPathProfile("empty")
	for _, snap := range []*profile.Snapshot{profile.NewSnapshot(), cloneBase(), s} {
		if got, want := snap.Fingerprint(), referenceFingerprint(snap); got != want {
			t.Errorf("fingerprint %016x, reference %016x", got, want)
		}
	}
}

func sortedNames[T any](m map[string]T) []string {
	out := make([]string, 0, len(m))
	for fn := range m {
		out = append(out, fn)
	}
	sort.Strings(out)
	return out
}

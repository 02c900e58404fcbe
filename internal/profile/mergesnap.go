package profile

import (
	"maps"
	"slices"
)

// NewSnapshot returns an empty snapshot ready to merge into.
func NewSnapshot() *Snapshot {
	return &Snapshot{
		Edges:  map[string]*EdgeProfile{},
		Paths:  map[string]*PathProfile{},
		Tables: map[string]*Table{},
	}
}

// MergeSnapshot folds other into s with the same deterministic
// routine-ordered fold the collector uses for shards: routines in
// name order, component merges unchanged. Folding a fixed sequence of
// snapshots in a fixed order therefore yields a bit-identical result
// (fingerprint included) on every run — the property the profile
// service's acked-implies-durable drill checks. other is not
// modified.
//
// Counts are saturating and Saturated flags propagate, exactly as in
// shard merges; path insertion order in s follows first contact, so
// different fold orders can permute (but never change) the path set.
func (s *Snapshot) MergeSnapshot(other *Snapshot) {
	for _, fn := range sortedKeys(other.Edges) {
		dst := s.Edges[fn]
		if dst == nil {
			dst = NewEdgeProfile(fn)
			s.Edges[fn] = dst
		}
		dst.Merge(other.Edges[fn])
	}
	for _, fn := range sortedKeys(other.Paths) {
		dst := s.Paths[fn]
		if dst == nil {
			dst = NewPathProfile(fn)
			s.Paths[fn] = dst
		}
		dst.Merge(other.Paths[fn])
	}
	for _, fn := range sortedKeys(other.Tables) {
		src := other.Tables[fn]
		dst := s.Tables[fn]
		if dst == nil {
			dst = NewTable(src.Kind, src.N, src.Size())
			s.Tables[fn] = dst
		}
		dst.Merge(src)
	}
}

// Clone returns a deep copy of s: folding into the copy (MergeSnapshot)
// leaves s untouched, and the copy fingerprints and encodes exactly
// like s. This is the profile service's per-commit scratch aggregate,
// so it copies backing slices wholesale rather than replaying counts.
func (s *Snapshot) Clone() *Snapshot {
	c := &Snapshot{
		Edges:  make(map[string]*EdgeProfile, len(s.Edges)),
		Paths:  make(map[string]*PathProfile, len(s.Paths)),
		Tables: make(map[string]*Table, len(s.Tables)),
	}
	for fn, ep := range s.Edges { //ppp:allow(mapiter) — map-to-map copy, order-free
		c.Edges[fn] = ep.clone()
	}
	for fn, pp := range s.Paths { //ppp:allow(mapiter) — map-to-map copy, order-free
		c.Paths[fn] = pp.clone()
	}
	for fn, t := range s.Tables { //ppp:allow(mapiter) — map-to-map copy, order-free
		c.Tables[fn] = t.clone()
	}
	return c
}

func (ep *EdgeProfile) clone() *EdgeProfile {
	c := *ep
	c.slots = maps.Clone(ep.slots)
	c.keys = slices.Clone(ep.keys)
	c.dense = slices.Clone(ep.dense)
	c.extra = maps.Clone(ep.extra)
	return &c
}

// clone copies the trie, the sibling chains, the path records and the
// ID arena, none of which holds a pointer. An edge table of pp's own
// is copied too; a bound DAG's table stays shared.
func (pp *PathProfile) clone() *PathProfile {
	c := *pp
	c.nodes = slices.Clone(pp.nodes)
	c.sibs = slices.Clone(pp.sibs)
	c.recs = slices.Clone(pp.recs)
	c.ids = slices.Clone(pp.ids)
	if pp.ownEdges {
		c.edges = slices.Clone(pp.edges)
	}
	return &c
}

func (t *Table) clone() *Table {
	c := *t
	c.arr = slices.Clone(t.arr)
	c.keys = slices.Clone(t.keys)
	c.used = slices.Clone(t.used)
	c.vals = slices.Clone(t.vals)
	return &c
}

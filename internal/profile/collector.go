// Sharded concurrent collection. A Collector owns one Shard per
// worker; each worker records into its private shard with the ordinary
// single-threaded fast paths (EdgeProfile.BumpSlot, PathProfile.Add,
// Table.Inc — no atomics, no locks), and Merge folds the shards into
// one snapshot off the hot path. This is how the profiling runtime
// scales across cores without slowing the per-event operations the
// paper's overhead argument depends on.
//
// Determinism: Merge visits shards in index order and routines in name
// order, so the same shard contents always produce the same snapshot.
// When workers replay identical replicas of a run partitioned in
// blocks over shard indices (vm.RunReplicated's contract), the merged
// snapshot is bit-identical to a sequential run at any worker count:
// edge counts are sums, path interning preserves first-seen order
// under block-ordered merging, and hash tables with identical
// per-shard layouts merge by slot replay into that same layout.
package profile

import (
	"math/bits"
	"sort"
)

// Shard is one worker's private profile state: per-routine edge and
// path profiles plus counter tables, created on demand. A shard is NOT
// safe for concurrent use — that is the point: exactly one worker owns
// it, so every counter bump stays a plain memory write. The containers
// themselves live in separate heap allocations; the trailing pad keeps
// adjacent Shard headers in the Collector's backing array from
// sharing a cache line.
type Shard struct {
	edges  map[string]*EdgeProfile
	paths  map[string]*PathProfile
	tables map[string]*Table

	_ [64]byte // cache-line pad between adjacent shards
}

// EdgeProfile returns the shard's edge profile for routine fn,
// creating it on first use. Successive runs against the same shard
// accumulate into the same profile (Slot registration is idempotent).
func (s *Shard) EdgeProfile(fn string) *EdgeProfile {
	if ep, ok := s.edges[fn]; ok {
		return ep
	}
	if s.edges == nil {
		s.edges = map[string]*EdgeProfile{}
	}
	ep := NewEdgeProfile(fn)
	s.edges[fn] = ep
	return ep
}

// PathProfile returns the shard's path profile for routine fn,
// creating it on first use.
func (s *Shard) PathProfile(fn string) *PathProfile {
	if pp, ok := s.paths[fn]; ok {
		return pp
	}
	if s.paths == nil {
		s.paths = map[string]*PathProfile{}
	}
	pp := NewPathProfile(fn)
	s.paths[fn] = pp
	return pp
}

// Table returns the shard's counter table for routine fn, creating it
// with the given shape on first use. Callers must request the same
// shape on every use (replicated runs of one program always do); the
// first shape wins.
func (s *Shard) Table(fn string, kind TableKind, n, size int64) *Table {
	if t, ok := s.tables[fn]; ok {
		return t
	}
	if s.tables == nil {
		s.tables = map[string]*Table{}
	}
	t := NewTable(kind, n, size)
	s.tables[fn] = t
	return t
}

// Collector owns the per-worker shards of a concurrent collection run.
// Hand Shard(i) to worker i, let each worker record without
// synchronization, and call Merge after the workers finish.
type Collector struct {
	shards []Shard
}

// NewCollector returns a collector with n shards (minimum 1).
func NewCollector(n int) *Collector {
	if n < 1 {
		n = 1
	}
	return &Collector{shards: make([]Shard, n)}
}

// Shard returns shard i. The caller must ensure at most one goroutine
// uses a given shard at a time.
func (c *Collector) Shard(i int) *Shard { return &c.shards[i] }

// Snapshot is the merged view of a collection run: per-routine edge
// profiles, path profiles, and counter tables.
type Snapshot struct {
	Edges  map[string]*EdgeProfile
	Paths  map[string]*PathProfile
	Tables map[string]*Table
}

// SaturatedRoutines returns the sorted names of routines whose merged
// counters clamped at CounterMax in any component (edge profile, path
// profile, or counter table). Empty means no overflow anywhere.
func (s *Snapshot) SaturatedRoutines() []string {
	set := map[string]bool{}
	for fn, ep := range s.Edges { //ppp:allow(mapiter) — collected into a sorted slice below
		if ep.Saturated {
			set[fn] = true
		}
	}
	for fn, pp := range s.Paths { //ppp:allow(mapiter) — collected into a sorted slice below
		if pp.Saturated {
			set[fn] = true
		}
	}
	for fn, t := range s.Tables { //ppp:allow(mapiter) — collected into a sorted slice below
		if t.Saturated {
			set[fn] = true
		}
	}
	return sortedKeys(set)
}

// Routines returns how many routines s holds any profile of: the
// union of the routine names of its edge profiles, path profiles and
// counter tables. (A PP-instrumented run's snapshot carries tables
// only.)
func (s *Snapshot) Routines() int {
	n := len(s.Edges)
	for fn := range s.Paths { //ppp:allow(mapiter) — counting, order-free
		if s.Edges[fn] == nil {
			n++
		}
	}
	for fn := range s.Tables { //ppp:allow(mapiter) — counting, order-free
		if s.Edges[fn] == nil && s.Paths[fn] == nil {
			n++
		}
	}
	return n
}

// Merge folds every shard into a fresh snapshot, deterministically:
// shards in index order, routines in name order. The shards are not
// modified and may be merged again after further recording.
func (c *Collector) Merge() *Snapshot {
	return c.MergeShards(nil)
}

// MergeShards folds the selected shards into a fresh snapshot. A nil
// include selects every shard; otherwise shard i participates iff
// include[i]. Quarantine (vm.RunReplicated's guarded mode) merges only
// the surviving shards this way, and the result is identical to a
// collector that never held the excluded shards: merge order over the
// included shards is unchanged.
func (c *Collector) MergeShards(include []bool) *Snapshot {
	snap := &Snapshot{
		Edges:  map[string]*EdgeProfile{},
		Paths:  map[string]*PathProfile{},
		Tables: map[string]*Table{},
	}
	for i := range c.shards {
		if include != nil && (i >= len(include) || !include[i]) {
			continue
		}
		sh := &c.shards[i]
		for _, fn := range sortedKeys(sh.edges) {
			dst := snap.Edges[fn]
			if dst == nil {
				dst = NewEdgeProfile(fn)
				snap.Edges[fn] = dst
			}
			dst.Merge(sh.edges[fn])
		}
		for _, fn := range sortedKeys(sh.paths) {
			dst := snap.Paths[fn]
			if dst == nil {
				dst = NewPathProfile(fn)
				snap.Paths[fn] = dst
			}
			dst.Merge(sh.paths[fn])
		}
		for _, fn := range sortedKeys(sh.tables) {
			src := sh.tables[fn]
			dst := snap.Tables[fn]
			if dst == nil {
				dst = NewTable(src.Kind, src.N, src.Size())
				snap.Tables[fn] = dst
			}
			dst.Merge(src)
		}
	}
	return snap
}

// Fingerprint hashes the snapshot's observable state — edge
// frequencies, path counts in first-seen order, table contents
// including hash slot layout and lost/cold/drop totals — into one
// value. Two snapshots with equal fingerprints are bit-identical for
// every consumer in this repository; the determinism tests and the
// bench throughput report compare runs through it.
func (s *Snapshot) Fingerprint() uint64 {
	h := fnvOffset64
	var edges []EdgeCount
	for _, fn := range sortedKeys(s.Edges) {
		h.str("E")
		h.str(fn)
		ep := s.Edges[fn]
		h.int(ep.Calls)
		if ep.Saturated {
			// Emitted only on overflow so zero-fault fingerprints stay
			// byte-compatible across releases.
			h.str("sat")
		}
		edges = ep.AppendCounts(edges[:0])
		for _, ec := range edges {
			h.int(int64(ec.Src))
			h.int(int64(ec.Dst))
			h.int(ec.Count)
		}
	}
	for _, fn := range sortedKeys(s.Paths) {
		h.str("P")
		h.str(fn)
		pp := s.Paths[fn]
		if pp.Saturated {
			h.str("sat")
		}
		for i := range pp.Distinct() {
			ids, count := pp.PathAt(i)
			h.int(int64(len(ids)))
			for _, id := range ids {
				h.int(int64(id))
			}
			h.int(count)
		}
	}
	for _, fn := range sortedKeys(s.Tables) {
		h.str("T")
		h.str(fn)
		t := s.Tables[fn]
		h.int(int64(t.Kind))
		h.int(t.N)
		h.int(t.Lost)
		h.int(t.Cold)
		h.int(t.Drops)
		if t.Saturated {
			h.str("sat")
		}
		if t.Kind == ArrayTable {
			for i, v := range t.arr {
				if v != 0 {
					h.int(int64(i))
					h.int(v)
				}
			}
			continue
		}
		for slot := 0; slot < HashSlots; slot++ {
			if t.used[slot] {
				h.int(int64(slot))
				h.int(t.keys[slot])
				h.int(t.vals[slot])
			}
		}
	}
	return uint64(h)
}

// fnv64a is a running 64-bit FNV-1a hash: the hash/fnv New64a
// function over the same bytes, kept in a register instead of behind
// the hash.Hash interface. int feeds an int64 as 8 little-endian
// bytes; str feeds a length-prefixed string.
type fnv64a uint64

const (
	fnvOffset64 fnv64a = 14695981039346656037
	fnvPrime64  fnv64a = 1099511628211
)

// fnvPrimePow[n] is fnvPrime64 to the n-th power.
var fnvPrimePow = func() (p [9]fnv64a) {
	p[0] = 1
	for n := 1; n < len(p); n++ {
		p[n] = p[n-1] * fnvPrime64
	}
	return p
}()

// int hashes v's significant low bytes one at a time. Each high zero
// byte would xor in nothing and then multiply by the prime, so the run
// of them collapses into one multiply by a power of the prime: the
// same hash as eight serial steps, bit for bit.
func (h *fnv64a) int(v int64) {
	x, u := *h, uint64(v)
	n := (bits.Len64(u) + 7) >> 3
	for i := 0; i < n; i++ {
		x ^= fnv64a(byte(u))
		x *= fnvPrime64
		u >>= 8
	}
	*h = x * fnvPrimePow[8-n]
}

func (h *fnv64a) str(s string) {
	h.int(int64(len(s)))
	x := *h
	for i := 0; i < len(s); i++ {
		x ^= fnv64a(s[i])
		x *= fnvPrime64
	}
	*h = x
}

// sortedKeys returns m's keys sorted, for deterministic merge order.
func sortedKeys[T any](m map[string]T) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

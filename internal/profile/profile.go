// Package profile holds the profile data structures shared between the
// VM, the instrumentation planner, and the evaluation: exact edge
// profiles, exact (ground truth) path profiles, and the runtime
// counter tables (array or 701-slot hash) that path instrumentation
// updates.
//
// Both profile kinds are optimized for the VM's hot loop: edge counts
// live in a dense slot-indexed array (one slice index per bump, no map
// hash), and path counts are keyed by an interned path ID resolved by
// walking a trie over DAG edge IDs (no string key is built per
// completed path). A path is stored as what it is on the wire and in
// the fingerprint, a run of int32 edge IDs in one arena, so a path
// profile holds no pointer per path edge. The map and cfg.Path views
// that planners, serializers, and tests consume are materialized
// lazily.
package profile

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"pathprof/internal/cfg"
)

// CounterMax is the saturation ceiling for every profile counter.
// Counters never wrap: additions clamp here and raise the owning
// container's Saturated flag, so an overflowed profile degrades to a
// lower bound instead of corrupting downstream frequency analysis.
const CounterMax = math.MaxInt64

// satAdd returns a+b clamped at CounterMax, and whether it clamped.
// Operands must be non-negative. Saturating addition of non-negative
// values is associative and commutative, so shard merges remain
// order-independent (and therefore deterministic) even when some
// shards saturated.
func satAdd(a, b int64) (int64, bool) {
	if a > CounterMax-b {
		return CounterMax, true
	}
	return a + b, false
}

// EdgeKey identifies a CFG edge by block indices.
type EdgeKey struct {
	Src, Dst int
}

// EdgeProfile is the exact edge profile of one routine.
//
// Counts live in dense slots, one per edge: the VM registers its edges
// up front (Slot/BumpSlot, a slice increment per branch), and Add
// registers an edge on its first count for consumers that do not know
// the edge set in advance (deserialization, merges, tests). Freq
// materializes the edge-count map on demand.
type EdgeProfile struct {
	Func  string
	Calls int64

	// Saturated reports that at least one counter (including Calls)
	// hit CounterMax and clamped; the profile is a lower bound.
	Saturated bool

	slots map[EdgeKey]int32
	keys  []EdgeKey
	dense []int64
}

// NewEdgeProfile returns an empty profile for a routine.
func NewEdgeProfile(name string) *EdgeProfile {
	return &EdgeProfile{Func: name}
}

// Slot registers the edge src->dst for dense counting and returns its
// slot index. Registering the same edge twice returns the same slot.
// Intended for set-up code (the VM's prepare pass), not the hot path.
func (ep *EdgeProfile) Slot(src, dst int) int {
	k := EdgeKey{src, dst}
	if s, ok := ep.slots[k]; ok {
		return int(s)
	}
	if ep.slots == nil {
		ep.slots = map[EdgeKey]int32{}
	}
	s := int32(len(ep.dense))
	ep.slots[k] = s
	ep.keys = append(ep.keys, k)
	ep.dense = append(ep.dense, 0)
	return int(s)
}

// BumpSlot increments the dense counter registered by Slot. This is
// the hot-path operation: one compare and one slice increment; the
// compare only fires its branch after 2^63-1 prior bumps.
//
//ppp:hotpath
func (ep *EdgeProfile) BumpSlot(slot int) {
	if ep.dense[slot] == CounterMax {
		ep.Saturated = true
		return
	}
	ep.dense[slot]++
}

// BumpCalls increments the routine-entry counter, saturating.
//
//ppp:hotpath
func (ep *EdgeProfile) BumpCalls() {
	if ep.Calls == CounterMax {
		ep.Saturated = true
		return
	}
	ep.Calls++
}

// Bump increments the edge count by one.
func (ep *EdgeProfile) Bump(src, dst int) {
	ep.Add(src, dst, 1)
}

// Add adds v executions of the edge src->dst, saturating at
// CounterMax.
func (ep *EdgeProfile) Add(src, dst int, v int64) {
	s := ep.Slot(src, dst)
	var sat bool
	if ep.dense[s], sat = satAdd(ep.dense[s], v); sat {
		ep.Saturated = true
	}
}

// Get returns the count of edge src->dst.
func (ep *EdgeProfile) Get(src, dst int) int64 {
	if s, ok := ep.slots[EdgeKey{src, dst}]; ok {
		return ep.dense[s]
	}
	return 0
}

// Freq materializes the edge-count map. The returned map is a
// snapshot: mutations to it are not reflected in the profile (use
// Add), and later bumps are not reflected in it.
func (ep *EdgeProfile) Freq() map[EdgeKey]int64 {
	out := make(map[EdgeKey]int64, len(ep.keys))
	for i, k := range ep.keys {
		if ep.dense[i] != 0 {
			out[k] = ep.dense[i]
		}
	}
	return out
}

// EdgeCount is one edge and its count.
type EdgeCount struct {
	EdgeKey
	Count int64
}

// AppendCounts appends to buf, in (Src, Dst) order, every edge with a
// nonzero count: Freq's entries in sorted order, without building its
// map. Fingerprint and the snapshot codec walk edges through it.
func (ep *EdgeProfile) AppendCounts(buf []EdgeCount) []EdgeCount {
	start := len(buf)
	for i, k := range ep.keys {
		if ep.dense[i] != 0 {
			buf = append(buf, EdgeCount{k, ep.dense[i]})
		}
	}
	slices.SortFunc(buf[start:], func(a, b EdgeCount) int {
		if a.Src != b.Src {
			return cmp.Compare(a.Src, b.Src)
		}
		return cmp.Compare(a.Dst, b.Dst)
	})
	return buf
}

// DiffSlots compares ep's dense slot counts with o's, slot by slot, and
// returns the first slot whose counts differ together with both
// counts (a slot one side never registered counts as zero), or slot
// -1 when they all agree.
func (ep *EdgeProfile) DiffSlots(o *EdgeProfile) (slot int, got, want int64) {
	a, b := ep.dense, o.dense
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i, a[i], b[i]
		}
	}
	for i := n; i < len(a); i++ {
		if a[i] != 0 {
			return i, a[i], 0
		}
	}
	for i := n; i < len(b); i++ {
		if b[i] != 0 {
			return i, 0, b[i]
		}
	}
	return -1, 0, 0
}

// ApplyTo writes the profile onto a CFG whose block IDs match the
// profile's block indices.
func (ep *EdgeProfile) ApplyTo(g *cfg.Graph) {
	g.Calls = ep.Calls
	for _, e := range g.Edges {
		e.Freq = ep.Get(e.Src.ID, e.Dst.ID)
	}
}

// Merge adds other's counts into ep (for combining multi-run profiles,
// as the paper does for multi-input benchmarks). other's edges are
// folded in its slot order, so merged profiles are built identically
// run to run.
func (ep *EdgeProfile) Merge(other *EdgeProfile) {
	ep.MergeCalls(other.Calls, other.Saturated)
	for i, k := range other.keys {
		if other.dense[i] != 0 {
			ep.Add(k.Src, k.Dst, other.dense[i])
		}
	}
}

// MergeCalls is Merge's fold of another profile's header: calls more
// routine entries, saturating, and ep marked saturated when the other
// profile was. A caller holding the other profile's edge counts in
// wire form adds them with Add (nonzero counts only, as Merge does).
func (ep *EdgeProfile) MergeCalls(calls int64, saturated bool) {
	var sat bool
	ep.Calls, sat = satAdd(ep.Calls, calls)
	if sat || saturated {
		ep.Saturated = true
	}
}

// PathCount is one ground-truth path with its execution count.
type PathCount struct {
	Path  cfg.Path
	Count int64
}

// PathProfile is the exact Ball-Larus path profile of one routine:
// paths truncate at back edges and routine exits; calls suspend the
// caller's path.
//
// Paths are interned as what they are on the wire and in the
// fingerprint, runs of DAG edge IDs: a trie over edge IDs maps each
// distinct path to a small integer ID assigned in first-seen order,
// and the interned paths' IDs sit back to back in one arena. Recording
// a repeat execution walks the trie (a few comparisons per edge)
// without building a key or allocating, and the trie, the arena and
// the path records hold no pointers, so the garbage collector never
// scans them and Clone is a handful of slice copies.
type PathProfile struct {
	Func string

	// Saturated reports that at least one path count hit CounterMax
	// and clamped; the profile is a lower bound.
	Saturated bool

	// nodes[0] is the trie root. Node IDs index this slice so the
	// backing array can grow without invalidating references.
	nodes []pathNode
	// sibs holds every node's overflow children, each node's chained
	// through next from its more.
	sibs []pathSib
	// recs is indexed by interned path ID (also first-seen order); a
	// path's edge IDs are ids[off : off+n].
	recs []pathRec
	ids  []int32
	// total is the saturating sum of every path count, kept by AddAt
	// so Total is O(1).
	total int64

	// edges resolves edge IDs to DAG edges for Paths and Edge:
	// edges[id], when non-nil, is the edge with that ID, from Bind,
	// Merge or a path handed to Add. It may be a DAG's own edge table
	// (ownEdges false), so it is copied before its first write.
	edges    []*cfg.DAGEdge
	ownEdges bool
}

// pathNode is one trie node: 16 bytes and no pointers.
type pathNode struct {
	// id is the interned path ID + 1 of the path ending at this node;
	// 0 means no recorded path ends here.
	id int32
	// kid0 is the first child, stored inline: kids are added in
	// first-walked order, so on the skewed branches of real profiles
	// kid0 is the hot successor and Step's inlined probe touches only
	// this node's cache line. edge is noKid while the node is
	// childless; later children overflow to the sibs chain at more.
	kid0 pathKid
	more int32
}

// noKid marks an empty kid0 slot (edge IDs are non-negative); noSib
// ends a sibling chain.
const (
	noKid = int32(-1)
	noSib = int32(-1)
)

// pathKid is one trie child, keyed by DAG edge ID. Fan-out per node is
// tiny (bounded by a block's successor count), so the inline first
// child plus a linear overflow scan beats a map.
type pathKid struct {
	edge int32
	node int32
}

// pathSib is an overflow child, linked to the next one of its node.
type pathSib struct {
	pathKid
	next int32
}

// pathRec is one interned path: its run in the ID arena and its count.
type pathRec struct {
	off, n int32
	count  int64
}

// newPathNode returns a childless trie node.
func newPathNode() pathNode {
	return pathNode{kid0: pathKid{edge: noKid}, more: noSib}
}

// NewPathProfile returns an empty path profile.
func NewPathProfile(name string) *PathProfile {
	return &PathProfile{Func: name, nodes: []pathNode{newPathNode()}}
}

// Bind makes Paths and Edge resolve edge IDs through a routine's DAG
// edge table (edges[i].ID == i). The table is shared, never written.
// An executor binds its run's profile once and then records edge IDs
// only.
func (pp *PathProfile) Bind(edges []*cfg.DAGEdge) { pp.adopt(edges) }

// Edge returns the DAG edge that edge ID id resolves to, or nil when
// the profile knows only the ID (a decoded profile, say).
func (pp *PathProfile) Edge(id int32) *cfg.DAGEdge {
	if uint32(id) < uint32(len(pp.edges)) {
		return pp.edges[id]
	}
	return nil
}

// adopt resolves the IDs pp cannot resolve yet through tab as well,
// sharing tab outright when pp has no table of its own.
func (pp *PathProfile) adopt(tab []*cfg.DAGEdge) {
	switch {
	case len(tab) == 0:
	case pp.edges == nil:
		pp.edges, pp.ownEdges = tab, false
	case len(pp.edges) >= len(tab) && &pp.edges[0] == &tab[0]:
		// tab is pp's own table or a prefix of it.
	default:
		for _, e := range tab {
			if e != nil {
				pp.learn(e)
			}
		}
	}
}

// learn records e as the edge its ID resolves to, unless the ID
// already resolves.
func (pp *PathProfile) learn(e *cfg.DAGEdge) {
	if e.ID < len(pp.edges) && pp.edges[e.ID] != nil {
		return
	}
	if !pp.ownEdges {
		pp.edges = slices.Clone(pp.edges)
		pp.ownEdges = true
	}
	if e.ID >= len(pp.edges) {
		pp.edges = append(pp.edges, make([]*cfg.DAGEdge, e.ID+1-len(pp.edges))...)
	}
	pp.edges[e.ID] = e
}

// kid returns cur's child along edge id, or -1.
func (pp *PathProfile) kid(cur, id int32) int32 {
	n := &pp.nodes[cur]
	if n.kid0.edge == id {
		return n.kid0.node
	}
	for s := n.more; s != noSib; s = pp.sibs[s].next {
		if pp.sibs[s].edge == id {
			return pp.sibs[s].node
		}
	}
	return -1
}

// addKid appends a fresh node under cur for edge id.
func (pp *PathProfile) addKid(cur, id int32) int32 {
	next := int32(len(pp.nodes))
	pp.nodes = append(pp.nodes, newPathNode())
	n := &pp.nodes[cur]
	if n.kid0.edge == noKid {
		n.kid0 = pathKid{edge: id, node: next}
	} else {
		pp.sibs = append(pp.sibs, pathSib{pathKid{edge: id, node: next}, n.more})
		n.more = int32(len(pp.sibs) - 1)
	}
	return next
}

// Add records count executions of path p, saturating at CounterMax.
// p's edges become the ones Paths resolves their IDs to, where no
// edge was known for an ID yet.
func (pp *PathProfile) Add(p cfg.Path, count int64) {
	cur := pp.Root()
	for _, e := range p {
		pp.learn(e)
		cur = pp.Step(cur, int32(e.ID))
	}
	var ids []int32
	if pp.nodes[cur].id == 0 {
		ids = make([]int32, len(p))
		for i, e := range p {
			ids[i] = int32(e.ID)
		}
	}
	pp.AddAt(cur, ids, count)
}

// Root returns the trie cursor for an empty path, the starting point
// of incremental recording via Step/AddAt.
func (pp *PathProfile) Root() int32 { return 0 }

// Step advances a trie cursor by one DAG edge, growing the trie when
// the edge was never walked from cur. Together with AddAt this lets an
// executor record a path in a single forward pass — one trie descent
// per edge as it executes, O(1) at completion — instead of re-walking
// the whole path in Add.
//
// The body is only the inline first-kid probe — one load and one
// compare — which keeps it under the compiler's inlining budget, so
// the steady-state descent inlines into the executors' transition
// code with no call at all. Later siblings and first descents take
// the stepScan outline.
//
//ppp:hotpath
func (pp *PathProfile) Step(cur int32, edgeID int32) int32 {
	if k := pp.nodes[cur].kid0; k.edge == edgeID {
		return k.node
	}
	return pp.stepScan(cur, edgeID)
}

// stepScan is Step's outlined slow path: scan the overflow siblings,
// then grow a fresh node on a miss. Kept out of line so Step's own
// body stays inlineable at every executor call site.
//
//go:noinline
func (pp *PathProfile) stepScan(cur, edgeID int32) int32 {
	if n := pp.kid(cur, edgeID); n >= 0 {
		return n
	}
	return pp.addKid(cur, edgeID)
}

// AddAt records count executions of the path ending at trie cursor n,
// which must have been produced by Step calls over exactly the edge
// IDs ids. Interns ids (copied into the arena) on first sight, so
// interned path IDs stay in first-seen completion order no matter how
// the trie nodes were grown; ids is only read then.
//
//ppp:hotpath
func (pp *PathProfile) AddAt(n int32, ids []int32, count int64) {
	if pp.nodes[n].id == 0 {
		pp.intern(n, ids)
	}
	r := &pp.recs[pp.nodes[n].id-1]
	var sat bool
	r.count, sat = satAdd(r.count, count)
	if sat {
		pp.Saturated = true
	}
	pp.total, _ = satAdd(pp.total, count)
}

// intern assigns the next path ID to node n and appends ids to the
// arena.
func (pp *PathProfile) intern(n int32, ids []int32) {
	pp.recs = append(pp.recs, pathRec{off: int32(len(pp.ids)), n: int32(len(ids))})
	pp.ids = append(pp.ids, ids...)
	pp.nodes[n].id = int32(len(pp.recs))
}

// Get returns the count of path p (0 if never taken).
func (pp *PathProfile) Get(p cfg.Path) int64 {
	cur := pp.Root()
	for _, e := range p {
		if cur = pp.kid(cur, int32(e.ID)); cur < 0 {
			return 0
		}
	}
	if id := pp.nodes[cur].id; id != 0 {
		return pp.recs[id-1].count
	}
	return 0
}

// PathAt returns interned path i (0 <= i < Distinct, first-seen
// order) as its DAG edge IDs, with its count. This is how the
// profile's paths are read without building edges: ids aliases the
// arena, so it is read-only and valid until the profile next records.
func (pp *PathProfile) PathAt(i int) (ids []int32, count int64) {
	r := pp.recs[i]
	return pp.ids[r.off : r.off+r.n : r.off+r.n], r.count
}

// Paths returns all recorded paths in first-seen order, their edges
// resolved as Edge does. An ID the profile cannot resolve gets a
// placeholder edge carrying only the ID, one per ID and call.
func (pp *PathProfile) Paths() []PathCount {
	out := make([]PathCount, len(pp.recs))
	all := make(cfg.Path, len(pp.ids))
	var ph map[int32]*cfg.DAGEdge
	for i := range pp.recs {
		ids, count := pp.PathAt(i)
		p := all[:len(ids):len(ids)]
		all = all[len(ids):]
		for k, id := range ids {
			e := pp.Edge(id)
			if e == nil {
				if e = ph[id]; e == nil {
					if ph == nil {
						ph = map[int32]*cfg.DAGEdge{}
					}
					e = &cfg.DAGEdge{ID: int(id)}
					ph[id] = e
				}
			}
			p[k] = e
		}
		out[i] = PathCount{Path: p, Count: count}
	}
	return out
}

// Distinct returns the number of distinct paths taken.
func (pp *PathProfile) Distinct() int { return len(pp.recs) }

// Total returns the total number of path executions, saturating at
// CounterMax.
func (pp *PathProfile) Total() int64 { return pp.total }

// Merge adds other's counts into pp, and resolves IDs through the
// edges other resolves them to where pp cannot.
func (pp *PathProfile) Merge(other *PathProfile) {
	if other.Saturated {
		pp.Saturated = true
	}
	for i := range other.recs {
		ids, count := other.PathAt(i)
		cur := pp.Root()
		for _, id := range ids {
			cur = pp.Step(cur, id)
		}
		pp.AddAt(cur, ids, count)
	}
	pp.adopt(other.edges)
}

// TableKind selects the counter storage.
type TableKind int

const (
	// ArrayTable indexes counters directly; the paper estimates a hash
	// update costs about five times an array update.
	ArrayTable TableKind = iota
	// HashTable uses 701 slots with three tries of secondary hashing
	// and a lost-path counter (Section 7.4).
	HashTable
)

// HashSlots and HashTries are the paper's hash table parameters.
const (
	HashSlots = 701
	HashTries = 3
)

// Table is a path-counter table for one routine.
type Table struct {
	Kind TableKind
	N    int64 // hot path numbers occupy [0, N)
	arr  []int64

	keys  []int64
	used  []bool
	vals  []int64
	Lost  int64 // hash conflicts beyond the secondary tries
	Cold  int64 // check-based poisoning diverts here
	Drops int64 // out-of-range indices (defensive; must stay 0)

	// Saturated reports that at least one counter hit CounterMax and
	// clamped; the table is a lower bound.
	Saturated bool
}

// NewTable allocates a table: an array of size counters, or a hash
// table when kind is HashTable.
func NewTable(kind TableKind, n, size int64) *Table {
	t := &Table{Kind: kind, N: n}
	if kind == ArrayTable {
		t.arr = make([]int64, size)
	} else {
		t.keys = make([]int64, HashSlots)
		t.used = make([]bool, HashSlots)
		t.vals = make([]int64, HashSlots)
	}
	return t
}

// Inc increments the counter for index idx.
//
//ppp:hotpath
func (t *Table) Inc(idx int64) { t.add(idx, 1) }

// IncArray increments array counter idx without the table-kind branch
// and weight generalization of add: an in-range increment is a bounds
// check, a saturation compare, and a slice increment, small enough to
// inline into a compiled transition closure. Out-of-range indices fall
// back to add (the Drops path). Must only be called on ArrayTable.
//
//ppp:hotpath
func (t *Table) IncArray(idx int64) {
	if uint64(idx) < uint64(len(t.arr)) {
		if t.arr[idx] == CounterMax {
			t.Saturated = true
			return
		}
		t.arr[idx]++
		return
	}
	t.add(idx, 1)
}

// Add records v executions of index idx through the normal probe
// sequence (v must be non-negative). Exported for deserialization and
// fault-injection preloading; the VM uses Inc.
func (t *Table) Add(idx, v int64) { t.add(idx, v) }

// BumpCold increments the check-based cold counter, saturating.
//
//ppp:hotpath
func (t *Table) BumpCold() {
	if t.Cold == CounterMax {
		t.Saturated = true
		return
	}
	t.Cold++
}

// add records v executions of index idx: Inc generalized to a weight,
// so shard merging can replay another table's counts through the same
// probe sequence. Dropped and lost executions carry their weight into
// Drops and Lost. Every counter saturates at CounterMax.
//
//ppp:hotpath
func (t *Table) add(idx, v int64) {
	var sat bool
	if t.Kind == ArrayTable {
		if idx < 0 || idx >= int64(len(t.arr)) {
			t.Drops, sat = satAdd(t.Drops, v)
			if sat {
				t.Saturated = true
			}
			return
		}
		t.arr[idx], sat = satAdd(t.arr[idx], v)
		if sat {
			t.Saturated = true
		}
		return
	}
	h := idx % HashSlots
	if h < 0 {
		h += HashSlots
	}
	step := idx % (HashSlots - 2)
	if step < 0 {
		step += HashSlots - 2
	}
	step++
	for try := 0; try < HashTries; try++ {
		s := (h + int64(try)*step) % HashSlots
		if !t.used[s] {
			t.used[s] = true
			t.keys[s] = idx
			t.vals[s], sat = satAdd(t.vals[s], v)
			if sat {
				t.Saturated = true
			}
			return
		}
		if t.keys[s] == idx {
			t.vals[s], sat = satAdd(t.vals[s], v)
			if sat {
				t.Saturated = true
			}
			return
		}
	}
	t.Lost, sat = satAdd(t.Lost, v)
	if sat {
		t.Saturated = true
	}
}

// Size returns the counter-array capacity (0 for hash tables), so a
// table of the same shape can be constructed.
func (t *Table) Size() int64 {
	return int64(len(t.arr))
}

// Get returns the counter recorded for index idx, probing exactly as
// add would; out-of-range, unoccupied, and lost indices read as zero.
func (t *Table) Get(idx int64) int64 {
	if t.Kind == ArrayTable {
		if idx < 0 || idx >= int64(len(t.arr)) {
			return 0
		}
		return t.arr[idx]
	}
	h := idx % HashSlots
	if h < 0 {
		h += HashSlots
	}
	step := idx % (HashSlots - 2)
	if step < 0 {
		step += HashSlots - 2
	}
	step++
	for try := 0; try < HashTries; try++ {
		s := (h + int64(try)*step) % HashSlots
		if !t.used[s] {
			return 0
		}
		if t.keys[s] == idx {
			return t.vals[s]
		}
	}
	return 0
}

// Merge adds other's counters into t. Array entries add elementwise;
// hash entries replay other's occupied slots in slot order through the
// normal probe sequence, which is deterministic. When t and other have
// identical slot layouts — the sharded-replica case, where every shard
// saw the same key arrival order — the merged layout is bit-identical
// to accumulating both streams into one table; with divergent layouts
// the merge is still deterministic but collision accounting can differ
// from a single-table run, exactly as the paper's arrival-order-
// sensitive hash table would.
func (t *Table) Merge(other *Table) {
	t.MergeTotals(other.Lost, other.Cold, other.Drops, other.Saturated)
	if other.Kind == ArrayTable {
		for i, v := range other.arr {
			if v != 0 {
				t.add(int64(i), v)
			}
		}
		return
	}
	for s := 0; s < HashSlots; s++ {
		if other.used[s] {
			t.add(other.keys[s], other.vals[s])
		}
	}
}

// MergeTotals is Merge's fold of another table's totals: its lost,
// cold and dropped counts, saturating, and its saturation flag. A
// caller holding the other table's counters in wire form replays them
// with Add, as Merge does.
func (t *Table) MergeTotals(lost, cold, drops int64, saturated bool) {
	var sat [3]bool
	t.Lost, sat[0] = satAdd(t.Lost, lost)
	t.Cold, sat[1] = satAdd(t.Cold, cold)
	t.Drops, sat[2] = satAdd(t.Drops, drops)
	if sat[0] || sat[1] || sat[2] || saturated {
		t.Saturated = true
	}
}

// HotCounts returns the measured counts of hot path numbers (< N),
// sorted by number.
func (t *Table) HotCounts() []IndexCount {
	var out []IndexCount
	if t.Kind == ArrayTable {
		limit := t.N
		if int64(len(t.arr)) < limit {
			limit = int64(len(t.arr))
		}
		for i := int64(0); i < limit; i++ {
			if t.arr[i] > 0 {
				out = append(out, IndexCount{i, t.arr[i]})
			}
		}
		return out
	}
	for s := 0; s < HashSlots; s++ {
		if t.used[s] && t.keys[s] < t.N && t.keys[s] >= 0 {
			out = append(out, IndexCount{t.keys[s], t.vals[s]})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

// ColdTotal returns the executions recorded in the poison region plus
// the check-based cold counter.
func (t *Table) ColdTotal() int64 {
	sum := t.Cold
	if t.Kind == ArrayTable {
		for i := t.N; i < int64(len(t.arr)); i++ {
			sum, _ = satAdd(sum, t.arr[i])
		}
		return sum
	}
	for s := 0; s < HashSlots; s++ {
		if t.used[s] && (t.keys[s] >= t.N || t.keys[s] < 0) {
			sum, _ = satAdd(sum, t.vals[s])
		}
	}
	return sum
}

// IndexCount pairs a path number with its measured count.
type IndexCount struct {
	Index int64
	Count int64
}

func (t *Table) String() string {
	return fmt.Sprintf("table(kind=%d N=%d lost=%d cold=%d)", t.Kind, t.N, t.Lost, t.ColdTotal())
}

// TableState is the complete serializable state of a Table, exposed
// for the durable snapshot codec. For array tables Arr carries the
// counter array; for hash tables Slots/Keys/Vals carry the occupied
// slots (in slot order), so a restored table reproduces the original
// slot layout bit-for-bit.
type TableState struct {
	Kind      TableKind
	N         int64
	Size      int64
	Lost      int64
	Cold      int64
	Drops     int64
	Saturated bool

	Arr   []int64 // ArrayTable counters, dense
	Slots []int32 // HashTable occupied slot indices, ascending
	Keys  []int64 // HashTable keys, parallel to Slots
	Vals  []int64 // HashTable values, parallel to Slots
}

// State exports the table's complete state for serialization.
func (t *Table) State() TableState {
	st := TableState{
		Kind: t.Kind, N: t.N, Size: t.Size(),
		Lost: t.Lost, Cold: t.Cold, Drops: t.Drops,
		Saturated: t.Saturated,
	}
	if t.Kind == ArrayTable {
		st.Arr = append([]int64(nil), t.arr...)
		return st
	}
	for s := 0; s < HashSlots; s++ {
		if t.used[s] {
			st.Slots = append(st.Slots, int32(s))
			st.Keys = append(st.Keys, t.keys[s])
			st.Vals = append(st.Vals, t.vals[s])
		}
	}
	return st
}

// TableField names the part of a table's state a TableDiff reports.
type TableField int8

const (
	DiffKind      TableField = iota + 1 // Got/Want: the kinds
	DiffN                               // Got/Want: N
	DiffSize                            // Got/Want: Size()
	DiffCold                            // Got/Want: Cold
	DiffLost                            // Got/Want: Lost
	DiffDrops                           // Got/Want: Drops
	DiffSaturated                       // Got/Want: Saturated as 0/1
	DiffCounter                         // array counter At: Got/Want its counts
	DiffOccupied                        // Got/Want: occupied hash slot counts
	DiffSlot                            // At: t's slot; Got/Want: the keys at the same occupied rank
	DiffValue                           // At: t's key; Got/Want: its counts
)

// TableDiff is the first difference Diff found between two tables.
type TableDiff struct {
	Field     TableField
	At        int64
	Got, Want int64
}

// Diff compares t's complete state with o's in place, without
// building either State, and reports the first difference: they
// differ exactly when reflect.DeepEqual(t.State(), o.State()) is
// false. The fields are checked in order: kind, N, size, cold, lost,
// drops, saturation, then the array counters by index, or for hash
// tables the occupied slot count and then the occupied slots in slot
// order, pairing each side's i-th occupied slot (key before value).
func (t *Table) Diff(o *Table) (TableDiff, bool) {
	scalar := [...]struct {
		f         TableField
		got, want int64
	}{
		{DiffKind, int64(t.Kind), int64(o.Kind)},
		{DiffN, t.N, o.N},
		{DiffSize, t.Size(), o.Size()},
		{DiffCold, t.Cold, o.Cold},
		{DiffLost, t.Lost, o.Lost},
		{DiffDrops, t.Drops, o.Drops},
		{DiffSaturated, b2i(t.Saturated), b2i(o.Saturated)},
	}
	for _, c := range scalar {
		if c.got != c.want {
			return TableDiff{Field: c.f, Got: c.got, Want: c.want}, true
		}
	}
	if t.Kind == ArrayTable {
		for i, v := range t.arr {
			if v != o.arr[i] {
				return TableDiff{Field: DiffCounter, At: int64(i), Got: v, Want: o.arr[i]}, true
			}
		}
		return TableDiff{}, false
	}
	// Up to the first slot where the two differ in occupancy, key or
	// value, the occupied slots pair up rank for rank.
	// (Reslicing to the constant length drops the loop's bounds checks.)
	tUsed, oUsed := t.used[:HashSlots], o.used[:HashSlots]
	tKeys, oKeys := t.keys[:HashSlots], o.keys[:HashSlots]
	tVals, oVals := t.vals[:HashSlots], o.vals[:HashSlots]
	s := 0
	for ; s < HashSlots; s++ {
		if tUsed[s] != oUsed[s] || tUsed[s] && (tKeys[s] != oKeys[s] || tVals[s] != oVals[s]) {
			break
		}
	}
	if s == HashSlots {
		return TableDiff{}, false
	}
	if nt, no := countUsed(tUsed), countUsed(oUsed); nt != no {
		return TableDiff{Field: DiffOccupied, Got: nt, Want: no}, true
	}
	st, so := s, s
	if !tUsed[s] {
		st = nextUsed(tUsed, s)
	}
	if !oUsed[s] {
		so = nextUsed(oUsed, s)
	}
	if st != so || t.keys[st] != o.keys[so] {
		return TableDiff{Field: DiffSlot, At: int64(st), Got: t.keys[st], Want: o.keys[so]}, true
	}
	return TableDiff{Field: DiffValue, At: t.keys[st], Got: t.vals[st], Want: o.vals[so]}, true
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func countUsed(used []bool) int64 {
	var n int64
	for _, u := range used {
		if u {
			n++
		}
	}
	return n
}

// nextUsed returns the first occupied slot after s. The caller knows
// one exists.
func nextUsed(used []bool, s int) int {
	for s++; !used[s]; s++ {
	}
	return s
}

// NewTableFromState rebuilds a table from serialized state. Hash slot
// contents are placed at their recorded slots directly (not re-probed),
// so the restored table is bit-identical to the saved one.
func NewTableFromState(st TableState) (*Table, error) {
	t := NewTable(st.Kind, st.N, st.Size)
	t.Lost, t.Cold, t.Drops = st.Lost, st.Cold, st.Drops
	t.Saturated = st.Saturated
	if st.Kind == ArrayTable {
		if int64(len(st.Arr)) != st.Size {
			return nil, fmt.Errorf("profile: array table state has %d counters, size %d", len(st.Arr), st.Size)
		}
		copy(t.arr, st.Arr)
		return t, nil
	}
	if len(st.Keys) != len(st.Slots) || len(st.Vals) != len(st.Slots) {
		return nil, fmt.Errorf("profile: hash table state slot/key/val lengths diverge: %d/%d/%d",
			len(st.Slots), len(st.Keys), len(st.Vals))
	}
	for i, s := range st.Slots {
		if s < 0 || s >= HashSlots {
			return nil, fmt.Errorf("profile: hash table state slot %d out of range", s)
		}
		if t.used[s] {
			return nil, fmt.Errorf("profile: hash table state repeats slot %d", s)
		}
		t.used[s] = true
		t.keys[s] = st.Keys[i]
		t.vals[s] = st.Vals[i]
	}
	return t, nil
}

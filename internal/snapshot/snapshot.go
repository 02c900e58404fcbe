// Package snapshot persists merged profile snapshots durably: a
// versioned binary codec with a CRC-32 integrity footer, and a Store
// that writes atomically (temp file + rename) while rotating the
// previous snapshot to a .prev fallback. A dynamic optimizer that
// feeds on profiles must never act on torn or bit-rotted counter
// data, so Load verifies the checksum and structure before handing
// anything back, rejects damage with a structured *CorruptError, and
// falls back to the last good snapshot when the primary is bad.
//
// The codec round-trips every observable the profile fingerprint
// hashes: a decoded snapshot's Fingerprint equals the encoded one's,
// including hash-table slot layout and saturation flags.
//
// Reading has one parser and two consumers. Parse validates the bytes
// and keeps them in wire form (an Upload: per-routine ranges into flat
// arenas of edge counts, path runs and edge IDs, and table cells).
// Upload.FoldInto merges that straight into an aggregate, which is how
// the profile service ingests and replays uploads without building
// them; Decode builds it into a profile.Snapshot.
package snapshot

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"sort"

	"pathprof/internal/profile"
)

// Magic and Version identify the on-disk format. Version bumps when
// the payload layout changes; readers reject versions they do not
// know rather than guessing.
const (
	Magic   = "PPSNAP"
	Version = 1
)

// maxTableSize bounds array-table capacities accepted by the decoder,
// so a corrupted size field cannot demand an absurd allocation. Real
// tables are at most 3x the hashing threshold (the paper's free-
// poisoning bound), far below this.
const maxTableSize = 1 << 24

// CorruptError reports rejected snapshot bytes: where decoding
// stopped and why. It deliberately carries no partial data — a
// snapshot is either whole or refused.
type CorruptError struct {
	Path   string // file path, if decoding from a Store ("" for bytes)
	Offset int    // approximate byte offset of the damage
	Reason string
}

func (e *CorruptError) Error() string {
	if e.Path == "" {
		return fmt.Sprintf("snapshot: corrupt at byte %d: %s", e.Offset, e.Reason)
	}
	return fmt.Sprintf("snapshot: %s corrupt at byte %d: %s", e.Path, e.Offset, e.Reason)
}

func corrupt(off int, format string, args ...any) error {
	return &CorruptError{Offset: off, Reason: fmt.Sprintf(format, args...)}
}

// Encode serializes a snapshot. The output is deterministic: routines
// are sorted by name, edge keys by (src, dst), paths kept in
// first-seen order, and hash slots in ascending slot order, so equal
// snapshots encode to equal bytes.
func Encode(s *profile.Snapshot) []byte {
	var w encoder
	w.bytes([]byte(Magic))
	w.u16(Version)

	edgeNames := sortedNames(s.Edges)
	w.uv(uint64(len(edgeNames)))
	var counts []profile.EdgeCount
	for _, fn := range edgeNames {
		ep := s.Edges[fn]
		w.str(fn)
		w.uv(uint64(ep.Calls))
		w.bool(ep.Saturated)
		counts = ep.AppendCounts(counts[:0])
		w.uv(uint64(len(counts)))
		for _, ec := range counts {
			w.uv(uint64(ec.Src))
			w.uv(uint64(ec.Dst))
			w.uv(uint64(ec.Count))
		}
	}

	pathNames := sortedNames(s.Paths)
	w.uv(uint64(len(pathNames)))
	for _, fn := range pathNames {
		pp := s.Paths[fn]
		w.str(fn)
		w.bool(pp.Saturated)
		w.uv(uint64(pp.Distinct()))
		for i := range pp.Distinct() {
			ids, count := pp.PathAt(i)
			w.uv(uint64(len(ids)))
			for _, id := range ids {
				w.uv(uint64(id))
			}
			w.uv(uint64(count))
		}
	}

	tableNames := sortedNames(s.Tables)
	w.uv(uint64(len(tableNames)))
	for _, fn := range tableNames {
		st := s.Tables[fn].State()
		w.str(fn)
		w.uv(uint64(st.Kind))
		w.uv(uint64(st.N))
		w.uv(uint64(st.Size))
		w.uv(uint64(st.Lost))
		w.uv(uint64(st.Cold))
		w.uv(uint64(st.Drops))
		w.bool(st.Saturated)
		if st.Kind == profile.ArrayTable {
			// Nonzero entries only: poison regions are mostly empty.
			nz := 0
			for _, v := range st.Arr {
				if v != 0 {
					nz++
				}
			}
			w.uv(uint64(nz))
			for i, v := range st.Arr {
				if v != 0 {
					w.uv(uint64(i))
					w.uv(uint64(v))
				}
			}
		} else {
			w.uv(uint64(len(st.Slots)))
			for i, s := range st.Slots {
				w.uv(uint64(s))
				w.iv(st.Keys[i]) // keys may be negative (poison indices)
				w.uv(uint64(st.Vals[i]))
			}
		}
	}

	sum := crc32.ChecksumIEEE(w.buf)
	var foot [4]byte
	binary.LittleEndian.PutUint32(foot[:], sum)
	return append(w.buf, foot[:]...)
}

// Upload is a snapshot Parse has validated, held as it is on the wire:
// per routine its header and the range of its entries in one shared
// arena per kind (edge counts; path lengths and counts, with every
// path's edge IDs back to back in one ID arena; table cells). It
// builds no trie and no table. FoldInto merges it into an aggregate
// and Decode builds it into a snapshot; both read it only, so one
// Upload may be folded any number of times.
type Upload struct {
	edges  []upEdges
	paths  []upPaths
	tables []upTable

	counts []profile.EdgeCount // edge entries, wire order
	runs   []pathRun           // paths, wire order
	ids    []int32             // each run's edge IDs, back to back
	cells  []tableCell         // table entries, index or slot order
}

// upEdges is one routine's edge profile: counts[lo:hi] in wire order,
// duplicates and zero counts included.
type upEdges struct {
	name      string
	calls     int64
	saturated bool
	lo, hi    int
}

// upPaths is one routine's path profile: runs[lo:hi], whose edge IDs
// start at ids[off].
type upPaths struct {
	name        string
	saturated   bool
	lo, hi, off int
}

// pathRun is one path on the wire: its edge count and its count.
type pathRun struct {
	n     int32
	count int64
}

// upTable is one routine's counter table: the state's scalar fields
// (Arr, Slots, Keys and Vals left empty) and cells[lo:hi].
type upTable struct {
	name   string
	st     profile.TableState
	lo, hi int
}

// tableCell is one table entry: an array counter (at is its index,
// key unused) or an occupied hash slot (at is the slot). Parse leaves
// a table's cells in ascending at order, an array index's last value
// winning, which is what the table it decodes to holds.
type tableCell struct {
	at       int32
	key, val int64
}

// Parse validates Encode's output and returns it in wire form. It
// checks the checksum, magic and version, every count against the
// bytes left, every value against CounterMax and every path edge ID
// against the int32 profile ID width, duplicate routine names in each
// section, the table kind, size, index and slot rules, and trailing
// bytes. Any damage yields a *CorruptError, naming the first damage
// met in reading order, and no Upload.
//
// Parsing allocates per routine and per arena, not per path or path
// edge: the ID arena is sized once from the bytes left, which bound
// the IDs that can follow.
func Parse(data []byte) (*Upload, error) {
	if len(data) < len(Magic)+2+4 {
		return nil, corrupt(0, "short input: %d bytes", len(data))
	}
	body, foot := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(foot); got != want {
		return nil, corrupt(len(body), "checksum mismatch: computed %08x, stored %08x", got, want)
	}
	r := decoder{buf: body}
	if string(r.take(len(Magic))) != Magic {
		return nil, corrupt(0, "bad magic")
	}
	if v := r.u16(); v != Version {
		return nil, corrupt(r.off, "unsupported version %d (want %d)", v, Version)
	}
	u := &Upload{}
	seen := map[string]bool{}
	dup := func(fn string) bool {
		d := seen[fn]
		seen[fn] = true
		return d
	}

	nEdges := r.count()
	for i := uint64(0); i < nEdges && r.err == nil; i++ {
		fn := r.str()
		if dup(fn) {
			return nil, corrupt(r.off, "duplicate edge profile %q", fn)
		}
		e := upEdges{name: fn, calls: r.nonneg(), saturated: r.bool(), lo: len(u.counts)}
		n := r.count()
		u.counts = slices.Grow(u.counts, int(n))
		for j := uint64(0); j < n && r.err == nil; j++ {
			src, dst, v := r.nonneg(), r.nonneg(), r.nonneg()
			u.counts = append(u.counts, profile.EdgeCount{EdgeKey: profile.EdgeKey{Src: int(src), Dst: int(dst)}, Count: v})
		}
		e.hi = len(u.counts)
		u.edges = append(u.edges, e)
	}

	clear(seen)
	nPaths := r.count()
	for i := uint64(0); i < nPaths && r.err == nil; i++ {
		fn := r.str()
		if dup(fn) {
			return nil, corrupt(r.off, "duplicate path profile %q", fn)
		}
		p := upPaths{name: fn, saturated: r.bool(), lo: len(u.runs), off: len(u.ids)}
		n := r.count()
		u.runs = slices.Grow(u.runs, int(n))
		for j := uint64(0); j < n && r.err == nil; j++ {
			ne := r.count()
			if u.ids == nil && ne > 0 {
				// Every edge ID takes at least one byte.
				u.ids = make([]int32, 0, len(r.buf)-r.off)
			}
			if err := r.pathIDs(ne, &u.ids); err != nil {
				return nil, err
			}
			u.runs = append(u.runs, pathRun{n: int32(ne), count: r.nonneg()})
		}
		p.hi = len(u.runs)
		u.paths = append(u.paths, p)
	}

	clear(seen)
	nTables := r.count()
	for i := uint64(0); i < nTables && r.err == nil; i++ {
		fn := r.str()
		if dup(fn) {
			return nil, corrupt(r.off, "duplicate table %q", fn)
		}
		var st profile.TableState
		kind := r.nonneg()
		if kind != int64(profile.ArrayTable) && kind != int64(profile.HashTable) {
			return nil, corrupt(r.off, "unknown table kind %d", kind)
		}
		st.Kind = profile.TableKind(kind)
		st.N = r.nonneg()
		st.Size = r.nonneg()
		st.Lost, st.Cold, st.Drops = r.nonneg(), r.nonneg(), r.nonneg()
		st.Saturated = r.bool()
		lo := len(u.cells)
		if st.Kind == profile.ArrayTable {
			if st.Size > maxTableSize {
				return nil, corrupt(r.off, "array table size %d exceeds limit %d", st.Size, maxTableSize)
			}
			nz := r.count()
			u.cells = slices.Grow(u.cells, int(nz))
			for j := uint64(0); j < nz && r.err == nil; j++ {
				idx, v := r.nonneg(), r.nonneg()
				if r.err == nil && idx >= st.Size {
					return nil, corrupt(r.off, "array index %d outside table of %d", idx, st.Size)
				}
				// idx < st.Size <= maxTableSize, so it fits the cell.
				u.cells = append(u.cells, tableCell{at: int32(idx), val: v})
			}
		} else {
			ns := r.count()
			u.cells = slices.Grow(u.cells, int(ns))
			for j := uint64(0); j < ns && r.err == nil; j++ {
				slot := int32(r.nonneg())
				key := r.iv()
				u.cells = append(u.cells, tableCell{at: slot, key: key, val: r.nonneg()})
			}
		}
		if r.err != nil {
			break
		}
		tab := upTable{name: fn, st: st, lo: lo, hi: len(u.cells)}
		cells, ok := sortCells(st.Kind, u.cells[lo:])
		if !ok {
			// A hash slot out of range or repeated: the table
			// constructor names the first one, as it does for Decode.
			_, err := profile.NewTableFromState(u.tableState(tab))
			return nil, corrupt(r.off, "table %q: %v", fn, err)
		}
		u.cells = u.cells[:lo+len(cells)]
		tab.hi = len(u.cells)
		u.tables = append(u.tables, tab)
	}

	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(r.buf) {
		return nil, corrupt(r.off, "%d trailing bytes", len(r.buf)-r.off)
	}
	return u, nil
}

// sortCells puts one table's cells, as read, in the order of the
// table they decode to: ascending at, an array index read twice
// keeping its last value. It returns the cells kept, or false, with
// cells as read, for a hash slot out of range or repeated.
func sortCells(kind profile.TableKind, cells []tableCell) ([]tableCell, bool) {
	if kind == profile.HashTable {
		var used [profile.HashSlots]bool
		for _, c := range cells {
			if c.at < 0 || c.at >= profile.HashSlots || used[c.at] {
				return cells, false
			}
			used[c.at] = true
		}
	}
	slices.SortStableFunc(cells, func(a, b tableCell) int { return cmp.Compare(a.at, b.at) })
	out := cells[:0]
	for _, c := range cells {
		if n := len(out); n > 0 && out[n-1].at == c.at {
			out[n-1] = c
			continue
		}
		out = append(out, c)
	}
	return out, true
}

// tableState is table t's complete state, as NewTableFromState takes
// it.
func (u *Upload) tableState(t upTable) profile.TableState {
	st := t.st
	cells := u.cells[t.lo:t.hi]
	if st.Kind == profile.ArrayTable {
		st.Arr = make([]int64, st.Size)
		for _, c := range cells {
			st.Arr[c.at] = c.val
		}
		return st
	}
	st.Slots = make([]int32, len(cells))
	st.Keys = make([]int64, len(cells))
	st.Vals = make([]int64, len(cells))
	for i, c := range cells {
		st.Slots[i], st.Keys[i], st.Vals[i] = c.at, c.key, c.val
	}
	return st
}

// addPaths records routine p's paths into pp in wire order: a trie
// descent per path edge, and the ID run copied into pp's arena only
// when the path is new to pp.
func (u *Upload) addPaths(pp *profile.PathProfile, p upPaths) {
	off := p.off
	for _, run := range u.runs[p.lo:p.hi] {
		ids := u.ids[off : off+int(run.n)]
		off += int(run.n)
		cur := pp.Root()
		for _, id := range ids {
			cur = pp.Step(cur, id)
		}
		pp.AddAt(cur, ids, run.count)
	}
}

// FoldInto merges u into dst, leaving dst exactly as
// dst.MergeSnapshot(Decode(data)) would (in Fingerprint and in Encode
// bytes) without building the snapshot: edge calls and counts add
// saturating, zero edge counts are skipped, a path or edge listed
// twice sums, paths new to dst are interned in first-seen wire order,
// table cells replay in index or slot order, Saturated flags carry
// over, and routines new to dst are created. Merging the wire entries
// in order equals merging their decoded sums, because saturating
// addition of non-negative counts is associative.
func (u *Upload) FoldInto(dst *profile.Snapshot) {
	for _, e := range u.edges {
		ep := dst.Edges[e.name]
		if ep == nil {
			ep = profile.NewEdgeProfile(e.name)
			dst.Edges[e.name] = ep
		}
		ep.MergeCalls(e.calls, e.saturated)
		for _, ec := range u.counts[e.lo:e.hi] {
			if ec.Count != 0 {
				ep.Add(ec.Src, ec.Dst, ec.Count)
			}
		}
	}
	for _, p := range u.paths {
		pp := dst.Paths[p.name]
		if pp == nil {
			pp = profile.NewPathProfile(p.name)
			dst.Paths[p.name] = pp
		}
		if p.saturated {
			pp.Saturated = true
		}
		u.addPaths(pp, p)
	}
	for _, t := range u.tables {
		tab := dst.Tables[t.name]
		if tab == nil {
			tab = profile.NewTable(t.st.Kind, t.st.N, t.st.Size)
			dst.Tables[t.name] = tab
		}
		tab.MergeTotals(t.st.Lost, t.st.Cold, t.st.Drops, t.st.Saturated)
		for _, c := range u.cells[t.lo:t.hi] {
			switch {
			case t.st.Kind == profile.HashTable:
				tab.Add(c.key, c.val)
			case c.val != 0:
				tab.Add(int64(c.at), c.val)
			}
		}
	}
}

// Decode rebuilds a snapshot from Encode's output: Parse, then one
// profile per routine built from the wire entries. Any damage yields
// Parse's *CorruptError and no snapshot. Decoded paths are runs of
// DAG edge IDs, as on the wire — enough for fingerprinting, counting,
// merging and re-encoding. They resolve to no DAG: PathProfile.Paths
// gives each ID a placeholder edge carrying only the ID, and
// resolving them against a program's real DAGs is the caller's
// concern. Edge entries are added as listed (a zero count included),
// and hash tables keep their encoded slot layout.
func Decode(data []byte) (*profile.Snapshot, error) {
	u, err := Parse(data)
	if err != nil {
		return nil, err
	}
	snap := profile.NewSnapshot()
	for _, e := range u.edges {
		ep := profile.NewEdgeProfile(e.name)
		ep.Calls, ep.Saturated = e.calls, e.saturated
		for _, ec := range u.counts[e.lo:e.hi] {
			ep.Add(ec.Src, ec.Dst, ec.Count)
		}
		snap.Edges[e.name] = ep
	}
	for _, p := range u.paths {
		pp := profile.NewPathProfile(p.name)
		pp.Saturated = p.saturated
		u.addPaths(pp, p)
		snap.Paths[p.name] = pp
	}
	for _, t := range u.tables {
		tab, err := profile.NewTableFromState(u.tableState(t))
		if err != nil {
			// Unreachable: Parse checked the state.
			return nil, err
		}
		snap.Tables[t.name] = tab
	}
	return snap, nil
}

// encoder appends varint-packed fields to a buffer.
type encoder struct {
	buf []byte
	tmp [binary.MaxVarintLen64]byte
}

func (w *encoder) bytes(b []byte) { w.buf = append(w.buf, b...) }
func (w *encoder) u16(v uint16) {
	w.buf = append(w.buf, byte(v), byte(v>>8))
}
func (w *encoder) uv(v uint64) {
	n := binary.PutUvarint(w.tmp[:], v)
	w.buf = append(w.buf, w.tmp[:n]...)
}
func (w *encoder) iv(v int64) {
	n := binary.PutVarint(w.tmp[:], v)
	w.buf = append(w.buf, w.tmp[:n]...)
}
func (w *encoder) str(s string) {
	w.uv(uint64(len(s)))
	w.buf = append(w.buf, s...)
}
func (w *encoder) bool(b bool) {
	if b {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// decoder reads the encoder's fields back, remembering the first
// error; all reads after an error are inert zero values, so decode
// loops stay simple and never index past the buffer.
type decoder struct {
	buf []byte
	off int
	err error
}

func (r *decoder) fail(format string, args ...any) {
	if r.err == nil {
		r.err = corrupt(r.off, format, args...)
	}
}

func (r *decoder) take(n int) []byte {
	if r.err != nil || r.off+n > len(r.buf) {
		r.fail("truncated: need %d bytes at %d of %d", n, r.off, len(r.buf))
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *decoder) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return uint16(b[0]) | uint16(b[1])<<8
}

func (r *decoder) uv() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.off += n
	return v
}

func (r *decoder) iv() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.off += n
	return v
}

// pathIDs appends a path's n edge IDs to *ids. One- and two-byte
// varints, which hold every edge ID below 16384, are decoded in line;
// a longer one goes through nonneg, which reports every malformed or
// overflowing varint, and is then checked against the int32 ID width.
func (r *decoder) pathIDs(n uint64, ids *[]int32) error {
	buf, off, out := r.buf, r.off, *ids
	for k := uint64(0); k < n; k++ {
		if off < len(buf) && buf[off] < 0x80 {
			out = append(out, int32(buf[off]))
			off++
			continue
		}
		if off+1 < len(buf) && buf[off+1] < 0x80 {
			out = append(out, int32(buf[off]&0x7f)|int32(buf[off+1])<<7)
			off += 2
			continue
		}
		r.off = off
		id := r.nonneg()
		if r.err != nil {
			return r.err
		}
		if id > math.MaxInt32 {
			return corrupt(r.off, "path edge ID %d exceeds %d", id, math.MaxInt32)
		}
		out = append(out, int32(id))
		off = r.off
	}
	r.off, *ids = off, out
	return nil
}

// nonneg reads an unsigned field that must fit in int64.
func (r *decoder) nonneg() int64 {
	v := r.uv()
	if r.err == nil && v > uint64(profile.CounterMax) {
		r.fail("value %d overflows int64", v)
		return 0
	}
	return int64(v)
}

// count reads an element count and sanity-checks it against the bytes
// remaining (every element costs at least one byte), so a corrupted
// count cannot drive a huge allocation or a near-endless loop.
func (r *decoder) count() uint64 {
	v := r.uv()
	if r.err == nil && v > uint64(len(r.buf)-r.off) {
		r.fail("count %d exceeds %d remaining bytes", v, len(r.buf)-r.off)
		return 0
	}
	return v
}

func (r *decoder) bool() bool {
	b := r.take(1)
	if b == nil {
		return false
	}
	if b[0] > 1 {
		r.fail("bad bool byte %d", b[0])
		return false
	}
	return b[0] == 1
}

func (r *decoder) str() string {
	n := r.count()
	return string(r.take(int(n)))
}

// sortedNames returns m's keys sorted.
func sortedNames[T any](m map[string]T) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

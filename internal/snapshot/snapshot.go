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
package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
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

// Decode rebuilds a snapshot from Encode's output, verifying the
// magic, version, checksum, and structural invariants. Any damage
// yields a *CorruptError and no snapshot. Decoded paths are runs of
// DAG edge IDs, as on the wire — enough for fingerprinting, counting,
// merging and re-encoding. They resolve to no DAG: PathProfile.Paths
// gives each ID a placeholder edge carrying only the ID, and
// resolving them against a program's real DAGs is the caller's
// concern. An edge ID must fit an int32, the profile's ID width.
func Decode(data []byte) (*profile.Snapshot, error) {
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

	snap := &profile.Snapshot{
		Edges:  map[string]*profile.EdgeProfile{},
		Paths:  map[string]*profile.PathProfile{},
		Tables: map[string]*profile.Table{},
	}

	nEdges := r.count()
	for i := uint64(0); i < nEdges && r.err == nil; i++ {
		fn := r.str()
		if _, dup := snap.Edges[fn]; dup {
			return nil, corrupt(r.off, "duplicate edge profile %q", fn)
		}
		ep := profile.NewEdgeProfile(fn)
		ep.Calls = r.nonneg()
		ep.Saturated = r.bool()
		n := r.count()
		for j := uint64(0); j < n && r.err == nil; j++ {
			src, dst, v := r.nonneg(), r.nonneg(), r.nonneg()
			ep.Add(int(src), int(dst), v)
		}
		snap.Edges[fn] = ep
	}

	// Every path is read into one scratch run of edge IDs while its
	// trie cursor descends; AddAt copies the run into the profile's ID
	// arena only when it interns a new path, so allocation follows
	// distinct paths (and arena growth), not path edges.
	nPaths := r.count()
	var ids []int32
	for i := uint64(0); i < nPaths && r.err == nil; i++ {
		fn := r.str()
		if _, dup := snap.Paths[fn]; dup {
			return nil, corrupt(r.off, "duplicate path profile %q", fn)
		}
		pp := profile.NewPathProfile(fn)
		pp.Saturated = r.bool()
		n := r.count()
		for j := uint64(0); j < n && r.err == nil; j++ {
			ne := r.count()
			ids = ids[:0]
			cur := pp.Root()
			for k := uint64(0); k < ne && r.err == nil; k++ {
				id := r.nonneg()
				if id > math.MaxInt32 {
					return nil, corrupt(r.off, "path edge ID %d exceeds %d", id, math.MaxInt32)
				}
				ids = append(ids, int32(id))
				cur = pp.Step(cur, int32(id))
			}
			count := r.nonneg()
			if r.err == nil {
				pp.AddAt(cur, ids, count)
			}
		}
		snap.Paths[fn] = pp
	}

	nTables := r.count()
	for i := uint64(0); i < nTables && r.err == nil; i++ {
		fn := r.str()
		if _, dup := snap.Tables[fn]; dup {
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
		if st.Kind == profile.ArrayTable {
			if st.Size > maxTableSize {
				return nil, corrupt(r.off, "array table size %d exceeds limit %d", st.Size, maxTableSize)
			}
			st.Arr = make([]int64, st.Size)
			nz := r.count()
			for j := uint64(0); j < nz && r.err == nil; j++ {
				idx, v := r.nonneg(), r.nonneg()
				if r.err == nil && idx >= st.Size {
					return nil, corrupt(r.off, "array index %d outside table of %d", idx, st.Size)
				}
				if r.err == nil {
					st.Arr[idx] = v
				}
			}
		} else {
			ns := r.count()
			for j := uint64(0); j < ns && r.err == nil; j++ {
				st.Slots = append(st.Slots, int32(r.nonneg()))
				st.Keys = append(st.Keys, r.iv())
				st.Vals = append(st.Vals, r.nonneg())
			}
		}
		if r.err != nil {
			break
		}
		tab, err := profile.NewTableFromState(st)
		if err != nil {
			return nil, corrupt(r.off, "table %q: %v", fn, err)
		}
		snap.Tables[fn] = tab
	}

	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(r.buf) {
		return nil, corrupt(r.off, "%d trailing bytes", len(r.buf)-r.off)
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

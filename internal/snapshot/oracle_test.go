package snapshot_test

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"pathprof/internal/profile"
	"pathprof/internal/snapshot"
)

// This file keeps the decoder as it stood before Decode became Parse
// plus a build step: a whole second implementation of the PPSNAP
// reader, built trie by trie, that FuzzParseFold holds Parse, Decode
// and FoldInto to. It is a test oracle only; nothing in the module
// calls it.

// oracleMaxTableSize is the codec's array-table size limit.
const oracleMaxTableSize = 1 << 24

func oracleCorrupt(off int, format string, args ...any) error {
	return &snapshot.CorruptError{Offset: off, Reason: fmt.Sprintf(format, args...)}
}

// oracleDecode is the former Decode, verbatim but for names.
func oracleDecode(data []byte) (*profile.Snapshot, error) {
	if len(data) < len(snapshot.Magic)+2+4 {
		return nil, oracleCorrupt(0, "short input: %d bytes", len(data))
	}
	body, foot := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(foot); got != want {
		return nil, oracleCorrupt(len(body), "checksum mismatch: computed %08x, stored %08x", got, want)
	}
	r := oracleDecoder{buf: body}
	if string(r.take(len(snapshot.Magic))) != snapshot.Magic {
		return nil, oracleCorrupt(0, "bad magic")
	}
	if v := r.u16(); v != snapshot.Version {
		return nil, oracleCorrupt(r.off, "unsupported version %d (want %d)", v, snapshot.Version)
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
			return nil, oracleCorrupt(r.off, "duplicate edge profile %q", fn)
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
			return nil, oracleCorrupt(r.off, "duplicate path profile %q", fn)
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
					return nil, oracleCorrupt(r.off, "path edge ID %d exceeds %d", id, math.MaxInt32)
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
			return nil, oracleCorrupt(r.off, "duplicate table %q", fn)
		}
		var st profile.TableState
		kind := r.nonneg()
		if kind != int64(profile.ArrayTable) && kind != int64(profile.HashTable) {
			return nil, oracleCorrupt(r.off, "unknown table kind %d", kind)
		}
		st.Kind = profile.TableKind(kind)
		st.N = r.nonneg()
		st.Size = r.nonneg()
		st.Lost, st.Cold, st.Drops = r.nonneg(), r.nonneg(), r.nonneg()
		st.Saturated = r.bool()
		if st.Kind == profile.ArrayTable {
			if st.Size > oracleMaxTableSize {
				return nil, oracleCorrupt(r.off, "array table size %d exceeds limit %d", st.Size, oracleMaxTableSize)
			}
			st.Arr = make([]int64, st.Size)
			nz := r.count()
			for j := uint64(0); j < nz && r.err == nil; j++ {
				idx, v := r.nonneg(), r.nonneg()
				if r.err == nil && idx >= st.Size {
					return nil, oracleCorrupt(r.off, "array index %d outside table of %d", idx, st.Size)
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
			return nil, oracleCorrupt(r.off, "table %q: %v", fn, err)
		}
		snap.Tables[fn] = tab
	}

	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(r.buf) {
		return nil, oracleCorrupt(r.off, "%d trailing bytes", len(r.buf)-r.off)
	}
	return snap, nil
}

// oracleDecoder reads the encoder's fields back, remembering the first
// error; all reads after an error are inert zero values, so decode
// loops stay simple and never index past the buffer.
type oracleDecoder struct {
	buf []byte
	off int
	err error
}

func (r *oracleDecoder) fail(format string, args ...any) {
	if r.err == nil {
		r.err = oracleCorrupt(r.off, format, args...)
	}
}

func (r *oracleDecoder) take(n int) []byte {
	if r.err != nil || r.off+n > len(r.buf) {
		r.fail("truncated: need %d bytes at %d of %d", n, r.off, len(r.buf))
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *oracleDecoder) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return uint16(b[0]) | uint16(b[1])<<8
}

func (r *oracleDecoder) uv() uint64 {
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

func (r *oracleDecoder) iv() int64 {
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
func (r *oracleDecoder) nonneg() int64 {
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
func (r *oracleDecoder) count() uint64 {
	v := r.uv()
	if r.err == nil && v > uint64(len(r.buf)-r.off) {
		r.fail("count %d exceeds %d remaining bytes", v, len(r.buf)-r.off)
		return 0
	}
	return v
}

func (r *oracleDecoder) bool() bool {
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

func (r *oracleDecoder) str() string {
	n := r.count()
	return string(r.take(int(n)))
}

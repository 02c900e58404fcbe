package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"pathprof/internal/profile"
	"pathprof/internal/snapshot"
)

// A tenant's durable state is a checkpoint plus a log of the batches
// committed since it. Both are built from one CRC-framed unit:
//
//	frame := u32 body length | u32 CRC-32 (IEEE) of body | body
//
// A log record is one frame per committed batch: the batch's first
// seq, then each fresh upload's idempotency key and its bytes exactly
// as received, in fold order.
//
//	record body := uvarint firstSeq | uvarint n | n × (str key, str upload)
//
// A checkpoint is the aggregate as of seq n together with the commit
// log up to it (the keys of seqs 1..n, in order):
//
//	checkpoint := "PPCKPT" | frame(uvarint n | n × str key | PPSNAP aggregate)
//
// where str is a uvarint length and the bytes. A bare PPSNAP aggregate
// (what a store seeded with Save, or written before the log existed,
// holds) is a checkpoint at seq 0 with an empty commit log.
const (
	ckptMagic = "PPCKPT"
	frameHdr  = 8
)

// errTornFrame marks bytes that end before a whole, checksummed frame:
// a log's torn tail, or a damaged checkpoint.
var errTornFrame = errors.New("torn or damaged frame")

// beginFrame starts a frame at the end of dst, to be sealed by
// endFrame once the body is appended.
func beginFrame(dst []byte) ([]byte, int) {
	return append(dst, make([]byte, frameHdr)...), len(dst)
}

func endFrame(dst []byte, at int) []byte {
	body := dst[at+frameHdr:]
	binary.LittleEndian.PutUint32(dst[at:], uint32(len(body)))
	binary.LittleEndian.PutUint32(dst[at+4:], crc32.ChecksumIEEE(body))
	return dst
}

// nextFrame splits the first whole frame off b.
func nextFrame(b []byte) (body, rest []byte, err error) {
	if len(b) < frameHdr {
		return nil, nil, errTornFrame
	}
	n := binary.LittleEndian.Uint32(b)
	if uint64(len(b)-frameHdr) < uint64(n) {
		return nil, nil, errTornFrame
	}
	body = b[frameHdr : frameHdr+int(n)]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(b[4:]) {
		return nil, nil, errTornFrame
	}
	return body, b[frameHdr+int(n):], nil
}

func appendStr(dst, s []byte) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// appendRecord appends the log record of a batch whose fresh items
// take seqs first, first+1, ... in order.
func appendRecord(dst []byte, first uint64, items []*ingestItem) []byte {
	dst, at := beginFrame(dst)
	dst = binary.AppendUvarint(dst, first)
	dst = binary.AppendUvarint(dst, uint64(len(items)))
	for _, it := range items {
		dst = appendStr(dst, []byte(it.key))
		dst = appendStr(dst, it.data)
	}
	return endFrame(dst, at)
}

// encodeCheckpoint builds a checkpoint of the aggregate bytes agg,
// which fold exactly the commits in log (seqs 1..len(log)).
func encodeCheckpoint(log []LogEntry, agg []byte) []byte {
	n := len(ckptMagic) + frameHdr + binary.MaxVarintLen64 + len(agg)
	for _, e := range log {
		n += binary.MaxVarintLen64 + len(e.Key)
	}
	dst, at := beginFrame(append(make([]byte, 0, n), ckptMagic...))
	dst = binary.AppendUvarint(dst, uint64(len(log)))
	for _, e := range log {
		dst = appendStr(dst, []byte(e.Key))
	}
	return endFrame(append(dst, agg...), at)
}

// reader walks a frame body; the first malformed field sets err and
// every later read returns zero values.
type reader struct {
	b   []byte
	err error
}

func (r *reader) uv() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.err = errors.New("bad varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *reader) str() []byte {
	n := r.uv()
	if r.err == nil && uint64(len(r.b)) < n {
		r.err = errors.New("string overruns its frame")
	}
	if r.err != nil {
		return nil
	}
	s := r.b[:n:n]
	r.b = r.b[n:]
	return s
}

// durable is a tenant's durable state, parsed and with its checkpoint
// decoded but the log not yet folded: the checkpoint's aggregate (and
// its bytes; nil when there is no checkpoint), the seq it covers, and
// the uploads logged past it in fold order. keys is the whole commit
// log: keys[i] was committed at seq i+1.
type durable struct {
	base    *profile.Snapshot
	ckpt    []byte
	ckptSeq int
	keys    []string
	uploads [][]byte
}

// parseDurable parses and validates a checkpoint (nil when there is
// none) and the log that follows it. Records the checkpoint already
// covers, which a crash between a checkpoint and its log reset leaves
// behind, are skipped. The log ends at its first frame that is not
// whole (a torn tail is an append that was never acked). Anything else
// inconsistent, such as a gap in the seqs, is an error: replaying past
// it could lose or double acked commits.
func parseDurable(ckpt, log []byte) (d durable, err error) {
	if len(ckpt) > 0 {
		d.ckpt = ckpt
		if string(ckpt[:min(len(ckpt), len(ckptMagic))]) == ckptMagic {
			body, _, ferr := nextFrame(ckpt[len(ckptMagic):])
			if ferr != nil {
				return d, fmt.Errorf("checkpoint: %w", ferr)
			}
			r := &reader{b: body}
			n := r.uv()
			for i := uint64(0); i < n && r.err == nil; i++ {
				d.keys = append(d.keys, string(r.str()))
			}
			if r.err != nil {
				return d, fmt.Errorf("checkpoint: %w", r.err)
			}
			d.ckpt = r.b
		}
		d.ckptSeq = len(d.keys)
		if d.base, err = snapshot.Decode(d.ckpt); err != nil {
			return d, fmt.Errorf("checkpoint: %w", err)
		}
	}
	for rest := log; len(rest) > 0; {
		body, next, ferr := nextFrame(rest)
		if ferr != nil {
			break
		}
		r := &reader{b: body}
		first, n := r.uv(), r.uv()
		var keys []string
		var uploads [][]byte
		for i := uint64(0); i < n && r.err == nil; i++ {
			keys = append(keys, string(r.str()))
			uploads = append(uploads, r.str())
		}
		if r.err != nil {
			return d, fmt.Errorf("log record at byte %d: %w", len(log)-len(rest), r.err)
		}
		switch last := first + n - 1; {
		case n == 0 || first == 0:
			return d, fmt.Errorf("log record at byte %d: empty or zero seq", len(log)-len(rest))
		case last <= uint64(d.ckptSeq):
			// Covered by the checkpoint.
		case first != uint64(len(d.keys))+1:
			return d, fmt.Errorf("log record at byte %d: seqs %d..%d do not follow seq %d",
				len(log)-len(rest), first, last, len(d.keys))
		default:
			d.keys = append(d.keys, keys...)
			d.uploads = append(d.uploads, uploads...)
		}
		rest = next
	}
	return d, nil
}

// commitLog is the commit log the durable state records.
func (d *durable) commitLog() []LogEntry {
	log := make([]LogEntry, len(d.keys))
	for i, k := range d.keys {
		log[i] = LogEntry{Seq: uint64(i + 1), Key: k}
	}
	return log
}

// fold rebuilds the acked aggregate: the checkpoint's, with every
// logged upload parsed and folded in seq order, exactly as the
// committer folded them. data is its canonical encoding (the
// checkpoint's own bytes when the log adds nothing). fold consumes d.
func (d *durable) fold() (data []byte, agg *profile.Snapshot, err error) {
	agg = d.base
	if agg == nil {
		agg = profile.NewSnapshot()
	}
	for i, data := range d.uploads {
		up, err := snapshot.Parse(data)
		if err != nil {
			return nil, nil, fmt.Errorf("logged upload of seq %d: %w", d.ckptSeq+i+1, err)
		}
		up.FoldInto(agg)
	}
	if len(d.uploads) == 0 && d.ckpt != nil {
		return d.ckpt, agg, nil
	}
	return snapshot.Encode(agg), agg, nil
}

package serve

import (
	"bytes"
	"fmt"
	"testing"

	"pathprof/internal/profile"
	"pathprof/internal/snapshot"
)

func walSnap(n int) *profile.Snapshot {
	s := profile.NewSnapshot()
	ep := profile.NewEdgeProfile("f")
	ep.Add(1, 2, int64(n+1))
	ep.Calls = int64(n + 1)
	s.Edges["f"] = ep
	return s
}

// walRecord is the log record of one batch of the given seqs, whose
// uploads are walSnap(seq).
func walRecord(first uint64, n int) []byte {
	var items []*ingestItem
	for i := 0; i < n; i++ {
		seq := int(first) + i
		items = append(items, &ingestItem{key: fmt.Sprintf("k%d", seq), data: snapshot.Encode(walSnap(seq))})
	}
	return appendRecord(nil, first, items)
}

// TestParseDurable covers replay's rules over a checkpoint at seq 2
// and a log: records it covers are skipped, a torn tail is dropped, and
// a seq gap or a damaged checkpoint is an error, not a silent replay.
func TestParseDurable(t *testing.T) {
	agg := profile.NewSnapshot()
	agg.MergeSnapshot(walSnap(1))
	agg.MergeSnapshot(walSnap(2))
	ckpt := encodeCheckpoint([]LogEntry{{1, "k1"}, {2, "k2"}}, snapshot.Encode(agg))
	want := profile.NewSnapshot()
	for seq := 1; seq <= 4; seq++ {
		want.MergeSnapshot(walSnap(seq))
	}
	cat := func(recs ...[]byte) []byte { return bytes.Join(recs, nil) }
	tail := walRecord(5, 1)

	for _, tc := range []struct {
		name string
		ckpt []byte
		log  []byte
		bad  bool
	}{
		{name: "log past the checkpoint", ckpt: ckpt, log: cat(walRecord(3, 2))},
		{name: "covered records left by a crash before the log reset", ckpt: ckpt, log: cat(walRecord(1, 2), walRecord(3, 1), walRecord(4, 1))},
		{name: "torn tail", ckpt: ckpt, log: cat(walRecord(3, 2), tail[:len(tail)-3])},
		{name: "no checkpoint yet", log: cat(walRecord(1, 1), walRecord(2, 3))},
		{name: "seq gap", ckpt: ckpt, log: cat(walRecord(4, 1)), bad: true},
		{name: "record straddling the checkpoint", ckpt: ckpt, log: cat(walRecord(2, 3)), bad: true},
		{name: "damaged checkpoint", ckpt: append(append([]byte(nil), ckpt[:20]...), ckpt[21:]...), bad: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := parseDurable(tc.ckpt, tc.log)
			if tc.bad {
				if err == nil {
					t.Fatal("accepted inconsistent durable state")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			rec, err := d.replay()
			if err != nil {
				t.Fatal(err)
			}
			if got := rec.Log; len(got) != 4 || got[3] != (LogEntry{4, "k4"}) {
				t.Errorf("commit log %+v, want k1..k4 at seqs 1..4", got)
			}
			if rec.Agg.Fingerprint() != want.Fingerprint() || !bytes.Equal(snapshot.Encode(rec.Agg), snapshot.Encode(want)) {
				t.Error("replay is not the in-order merge of seqs 1..4")
			}
			if rec.Data != nil {
				t.Error("replay handed back checkpoint bytes the log has moved past")
			}
		})
	}

	// Records the checkpoint covers add nothing: its own bytes come back.
	d, err := parseDurable(ckpt, walRecord(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := d.replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Log) != 2 || !bytes.Equal(rec.Data, snapshot.Encode(agg)) || rec.Agg.Fingerprint() != agg.Fingerprint() {
		t.Errorf("checkpoint-only replay = log %+v, %d bytes; want k1, k2 and the checkpoint's aggregate", rec.Log, len(rec.Data))
	}
}

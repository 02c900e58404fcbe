package snapshot_test

import (
	"testing"

	"pathprof/internal/snapshot"
)

// FuzzSnapshot throws arbitrary bytes at the decoder. The contract
// under attack: never panic, never hang, and anything accepted must
// re-encode to exactly the bytes that were accepted (the codec has one
// canonical form, so decode∘encode is the identity on valid inputs).
func FuzzSnapshot(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("PPSNAP"))
	good := snapshot.Encode(realSnapshot(f))
	f.Add(good)
	trunc := good[:len(good)/2]
	f.Add(trunc)
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/4] ^= 0x80
	f.Add(flipped)
	f.Add(onePath(1 << 31)) // an edge ID past int32

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := snapshot.Decode(data)
		if err != nil {
			if snap != nil {
				t.Fatal("decode returned a snapshot with an error")
			}
			return
		}
		re := snapshot.Encode(snap)
		back, err := snapshot.Decode(re)
		if err != nil {
			t.Fatalf("re-encoded accepted snapshot does not decode: %v", err)
		}
		if snap.Fingerprint() != back.Fingerprint() {
			t.Fatal("fingerprint not stable across re-encode")
		}
	})
}

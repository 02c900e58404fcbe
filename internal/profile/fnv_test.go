package profile

import (
	"math"
	"math/rand"
	"testing"
)

// serialInt is the byte-serial FNV-1a step over an int64's eight
// little-endian bytes: the definition fnv64a.int must reproduce.
func serialInt(h fnv64a, v int64) fnv64a {
	u := uint64(v)
	for i := 0; i < 8; i++ {
		h ^= fnv64a(byte(u))
		h *= fnvPrime64
		u >>= 8
	}
	return h
}

// TestFNVIntMatchesSerial: collapsing the high zero bytes into one
// multiply by a power of the prime leaves the hash unchanged, at every
// byte length, for negative values (no zero bytes to collapse) and
// from any running state.
func TestFNVIntMatchesSerial(t *testing.T) {
	vals := []int64{0, 1, 255, 256, 65535, 65536, -1, -256, math.MinInt64, math.MaxInt64, 1 << 56, 1<<56 - 1}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		// Random values of every byte length, not just full-width ones.
		vals = append(vals, r.Int63()>>(8*(i%8)), -r.Int63())
	}
	for _, start := range []fnv64a{fnvOffset64, 0, fnv64a(r.Uint64())} {
		for _, v := range vals {
			h := start
			h.int(v)
			if want := serialInt(start, v); h != want {
				t.Fatalf("int(%d) from %016x = %016x, byte-serial %016x", v, uint64(start), uint64(h), uint64(want))
			}
		}
	}
}

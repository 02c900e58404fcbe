package compile

import (
	"math"
	"testing"
)

// TestDivModK checks the reciprocal divide and modulo of the
// constant-divisor micro-ops against safeDiv and safeMod, the IR's
// total arithmetic, over the int64 extremes, ±1, small and large
// negatives, powers of two and their neighbours, and divisors from 2
// up to MaxInt64.
func TestDivModK(t *testing.T) {
	as := []int64{0, 1, -1, 2, -2, 3, -3, 7, -7, 100, -100, 12345, -12345,
		math.MaxInt64, math.MaxInt64 - 1, math.MinInt64, math.MinInt64 + 1,
		math.MaxInt32, math.MinInt32, math.MaxUint32, -math.MaxUint32}
	ks := []int64{2, 3, 5, 7, 10, 60, 97, 1000, 65535, 65536, 65537,
		math.MaxInt32, math.MaxUint32, math.MaxInt64 / 3, math.MaxInt64 - 1, math.MaxInt64}
	for sh := 1; sh < 63; sh++ {
		p := int64(1) << sh
		as = append(as, p, p-1, p+1, -p, -p+1, -p-1)
		ks = append(ks, p, p-1, p+1)
	}
	for _, k := range ks {
		if k <= 1 {
			continue
		}
		m := recip(k)
		for _, a := range as {
			if got, want := divK(a, k, m), safeDiv(a, k); got != want {
				t.Errorf("divK(%d, %d) = %d, want %d", a, k, got, want)
			}
			if got, want := modK(a, k, m), safeMod(a, k); got != want {
				t.Errorf("modK(%d, %d) = %d, want %d", a, k, got, want)
			}
		}
	}
}

// TestDivModP2 checks the shift-and-mask divide and modulo of the
// power-of-two divisor micro-ops against safeDiv and safeMod for every
// divisor 2^n from 2 to 2^62, over the int64 extremes, ±1, small and
// large negatives, and the multiples of the divisor and their
// neighbours.
func TestDivModP2(t *testing.T) {
	base := []int64{0, 1, -1, 2, -2, 3, -3, 7, -7, 100, -100, 12345, -12345,
		math.MaxInt64, math.MaxInt64 - 1, math.MinInt64, math.MinInt64 + 1,
		math.MaxInt32, math.MinInt32}
	for n := 1; n <= 62; n++ {
		k := int64(1) << n
		as := append([]int64(nil), base...)
		for _, q := range []int64{1, 2, 3, -1, -2, -3} {
			as = append(as, q*k, q*k-1, q*k+1)
		}
		for _, a := range as {
			if got, want := divP2(a, int32(n), k-1), safeDiv(a, k); got != want {
				t.Errorf("divP2(%d, 2^%d) = %d, want %d", a, n, got, want)
			}
			if got, want := modP2(a, k-1), safeMod(a, k); got != want {
				t.Errorf("modP2(%d, 2^%d) = %d, want %d", a, n, got, want)
			}
		}
	}
}

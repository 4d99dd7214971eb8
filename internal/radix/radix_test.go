package radix

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestSortMatchesSlicesSort: Sort agrees with slices.Sort on both key types,
// on lengths around the insertion cutoff and the 8-bit digit, on uniform,
// small, equal, extreme and top-bit-sharing keys.
func TestSortMatchesSlicesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	keys := map[string]func() uint64{
		"uniform":     rng.Uint64,
		"small":       func() uint64 { return uint64(rng.Intn(30)) },
		"equal":       func() uint64 { return 99 },
		"extremes":    func() uint64 { return []uint64{0, math.MaxUint64}[rng.Intn(2)] },
		"shared top":  func() uint64 { return 0xfeed<<48 | uint64(rng.Intn(1000)) },
		"two regions": func() uint64 { return uint64(rng.Intn(20)) << (40 * uint(rng.Intn(2))) },
	}
	for name, key := range keys {
		for _, n := range []int{0, 1, 2, 16, 17, 255, 256, 257, 3000} {
			s := make([]uint64, n)
			for i := range s {
				s[i] = key()
			}
			want := slices.Sorted(slices.Values(s))
			Sort(s, make([]uint64, n))
			if !slices.Equal(s, want) {
				t.Fatalf("%s, n=%d: uint64 keys out of order", name, n)
			}
			s32 := make([]int32, n)
			for i := range s32 {
				s32[i] = int32(key() & math.MaxInt32)
			}
			want32 := slices.Sorted(slices.Values(s32))
			Sort(s32, make([]int32, n+3))
			if !slices.Equal(s32, want32) {
				t.Fatalf("%s, n=%d: int32 keys out of order", name, n)
			}
		}
	}
}

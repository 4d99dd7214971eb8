package strdist_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"treejoin/internal/strdist"
)

// TestScratchBoundedProperty sweeps the banded kernel against the full-matrix
// reference on strings that share a prefix and a suffix (what affix stripping
// removes), at every threshold from 0 to past any possible distance: the
// verdict is exact, the distance is exact whenever it is within τ, and both
// are unchanged by swapping the arguments and by reversing both strings (the
// TED verifier relies on the last: it screens a reversed-preorder array).
// Aligned agrees with Bounded, and its alignment is monotone and costs
// exactly the distance.
func TestScratchBoundedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var s strdist.Scratch
	for iter := 0; iter < 1500; iter++ {
		alphabet := 1 + rng.Intn(4)
		pre, suf := randSeq(rng, 12, alphabet), randSeq(rng, 12, alphabet)
		a := slices.Concat(pre, randSeq(rng, 16, alphabet), suf)
		b := slices.Concat(pre, randSeq(rng, 16, alphabet), suf)
		ra, rb := slices.Clone(a), slices.Clone(b)
		slices.Reverse(ra)
		slices.Reverse(rb)
		want := slowLevenshtein(a, b)
		for tau := 0; tau <= len(a)+len(b)+1; tau++ {
			exp := min(want, tau+1)
			for _, in := range [][2][]int32{{a, b}, {b, a}, {ra, rb}} {
				if got := s.Bounded(in[0], in[1], tau); got != exp {
					t.Fatalf("Bounded(%v, %v, τ=%d) = %d, want %d (distance %d)", in[0], in[1], tau, got, exp, want)
				}
				if got := s.Aligned(in[0], in[1], tau); got != exp {
					t.Fatalf("Aligned(%v, %v, τ=%d) = %d, want %d", in[0], in[1], tau, got, exp)
				}
				if exp > tau {
					continue
				}
				for _, late := range []bool{false, true} {
					if match := s.Alignment(nil, late); alignmentCost(in[0], in[1], match) != exp {
						t.Fatalf("alignment %v of %v, %v costs %d, want %d", match, in[0], in[1], alignmentCost(in[0], in[1], match), exp)
					}
				}
			}
		}
	}
}

// alignmentCost is the cost of the alignment match (a's position → b's, −1
// for a deletion), or −1 when match is not monotone.
func alignmentCost(a, b, match []int32) int {
	cost, last := len(b), int32(-1)
	for i, j := range match {
		switch {
		case j < 0:
			cost++
		case j <= last || int(j) >= len(b):
			return -1
		default:
			last, cost = j, cost-1
			if a[i] != b[j] {
				cost++
			}
		}
	}
	return cost
}

// boundedInputs builds the benchmark's two regimes over length-n strings: a
// near-duplicate (edits scattered through a copy, just past the largest τ)
// and an unrelated string.
func boundedInputs(n int) (base, near, far []int32) {
	rng := rand.New(rand.NewSource(3))
	base, far = make([]int32, n), make([]int32, n)
	for i := range base {
		base[i], far[i] = int32(rng.Intn(20)), int32(rng.Intn(20))
	}
	near = slices.Clone(base)
	for e := 0; e < 9; e++ {
		near[10+e*20] = 99
	}
	return base, near, far
}

func BenchmarkBounded(b *testing.B) {
	base, near, far := boundedInputs(200)
	for _, in := range []struct {
		name string
		seq  []int32
	}{{"near", near}, {"unrelated", far}} {
		for _, tau := range []int{2, 6, 8} {
			b.Run(fmt.Sprintf("%s/tau=%d", in.name, tau), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					strdist.Bounded(base, in.seq, tau)
				}
			})
		}
	}
}

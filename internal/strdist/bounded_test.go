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
					if match := s.Alignment(nil, late); strdist.AlignmentCost(in[0], in[1], match) != exp {
						t.Fatalf("alignment %v of %v, %v costs %d, want %d", match, in[0], in[1], strdist.AlignmentCost(in[0], in[1], match), exp)
					}
				}
			}
		}
	}
}

// TestScratchBoundedWideBands holds the kernel to the reference on strings of
// 60–200 symbols, where the band reaches its edges: τ = 3 and 4 straddle the
// narrowest band the bit-vector kernel runs (5 diagonals), and τ = 62 … 65
// the widest (64; 63 and 64 reach it only when the lengths differ by 0 to 2,
// so the pairs do). The pairs are near-duplicates (a few edits, equal lengths
// among them), unrelated strings, and both swapped and reversed.
func TestScratchBoundedWideBands(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var s strdist.Scratch
	for iter := 0; iter < 240; iter++ {
		alphabet := 2 + rng.Intn(8)
		a := make([]int32, 60+rng.Intn(141))
		for i := range a {
			a[i] = int32(rng.Intn(alphabet))
		}
		var b []int32
		switch iter % 3 {
		case 0: // substitutions only: equal lengths
			b = slices.Clone(a)
			for e := rng.Intn(80); e > 0; e-- {
				b[rng.Intn(len(b))] = int32(rng.Intn(alphabet))
			}
		case 1: // a few insertions and deletions besides
			b = slices.Clone(a)
			for e := rng.Intn(40); e > 0 && len(b) > 60; e-- {
				i := rng.Intn(len(b))
				switch rng.Intn(3) {
				case 0:
					b = slices.Delete(b, i, i+1)
				case 1:
					b = slices.Insert(b, i, int32(rng.Intn(alphabet)))
				default:
					b[i] = int32(rng.Intn(alphabet))
				}
			}
		default: // unrelated, within two symbols of a's length
			b = make([]int32, len(a)+rng.Intn(5)-2)
			for i := range b {
				b[i] = int32(rng.Intn(alphabet))
			}
		}
		ra, rb := slices.Clone(a), slices.Clone(b)
		slices.Reverse(ra)
		slices.Reverse(rb)
		want := slowLevenshtein(a, b)
		for _, tau := range []int{3, 4, 62, 63, 64, 65} {
			exp := min(want, tau+1)
			for _, in := range [][2][]int32{{a, b}, {b, a}, {ra, rb}, {rb, ra}} {
				if got := s.Bounded(in[0], in[1], tau); got != exp {
					t.Fatalf("Bounded(τ=%d) on lengths %d, %d = %d, want %d", tau, len(in[0]), len(in[1]), got, exp)
				}
				if got := s.Aligned(in[0], in[1], tau); got != exp {
					t.Fatalf("Aligned(τ=%d) on lengths %d, %d = %d, want %d", tau, len(in[0]), len(in[1]), got, exp)
				}
				if exp > tau {
					continue
				}
				for _, late := range []bool{false, true} {
					if c := strdist.AlignmentCost(in[0], in[1], s.Alignment(nil, late)); c != exp {
						t.Fatalf("alignment at τ=%d on lengths %d, %d costs %d, want %d", tau, len(in[0]), len(in[1]), c, exp)
					}
				}
			}
		}
	}
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

// BenchmarkBounded times the pooled Bounded on 200-symbol strings, and the
// verifier's path — a held Scratch's Aligned then both Alignments, on a
// near-duplicate pair whose first string repeats — on 200- and 60-symbol
// strings, per string symbol (ns/row). τ = 2 and 3 run the row loop, 6 and 8
// the bit-vector kernel.
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
	for _, n := range []int{200, 60} {
		base, near, _ := boundedInputs(200)
		base, near = base[:n], near[:n]
		for _, tau := range []int{2, 3, 6, 8} {
			b.Run(fmt.Sprintf("aligned/n=%d/tau=%d", n, tau), func(b *testing.B) {
				b.ReportAllocs()
				var s strdist.Scratch
				var match []int32
				for i := 0; i < b.N; i++ {
					if s.Aligned(base, near, tau) <= tau {
						match = s.Alignment(match, true)
						match = s.Alignment(match, false)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
			})
		}
	}
}

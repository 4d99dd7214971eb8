package strdist

import (
	"math/rand"
	"slices"
	"testing"
)

// symbols maps fuzz bytes below 128 onto a small alphabet, so that matches
// are common, and keeps the others, so that the masks meet many symbols.
func symbols(p []byte) []int32 {
	out := make([]int32, len(p))
	for i, c := range p {
		out[i] = int32(c)
		if c < 128 {
			out[i] %= 6
		}
	}
	return out
}

// FuzzBandedKernels runs the bit-vector kernel (every band up to 64
// diagonals), the row loop (every band) and Levenshtein on the same pair and
// threshold: the verdict and the distance agree, and so do the alignments
// the two kept bands trace back, for both tie rules.
func FuzzBandedKernels(f *testing.F) {
	near := make([]byte, 200)
	for i := range near {
		near[i] = byte(i * 7 % 13)
	}
	edited := slices.Clone(near)
	for i := 5; i < len(edited); i += 17 {
		edited[i] ^= 1
	}
	f.Add([]byte("kitten"), []byte("sitting"), 3)
	f.Add([]byte{}, []byte{1, 2}, 2)
	f.Add([]byte{0, 1, 2, 3, 4, 5}, []byte{0, 1, 2, 3, 4, 5}, 0)
	f.Add([]byte{0, 0, 0, 0, 1}, []byte{1, 0, 0, 0, 0}, 4)
	f.Add(near, edited, 6)
	f.Add(near, edited[:190], 12)
	f.Add(edited[3:], near, 63)
	f.Add(near[:120], edited[60:], 64)
	f.Add(near[:61], edited[:60], 62)
	f.Add([]byte{200, 201, 202, 1, 2, 3, 4, 5, 1, 2}, []byte{200, 201, 202, 1, 3, 3, 4, 5, 2, 2}, 6)
	f.Fuzz(func(t *testing.T, pa, pb []byte, tau int) {
		if len(pa) > 300 || len(pb) > 300 {
			return
		}
		tau %= 80
		a, b := symbols(pa), symbols(pb)
		rb := slices.Clone(b)
		slices.Reverse(rb)
		var bits, rows Scratch
		// The bit-vector scratch meets a three times: its masks are begun,
		// filled in further (the reversed string has its own common
		// prefix with a) and reused.
		for _, y := range [][]int32{b, rb, b} {
			exp := min(Levenshtein(a, y), tau+1)
			if tau < 0 {
				exp = tau + 1
			}
			for _, keep := range []bool{false, true} {
				if got := bits.bounded(a, y, tau, keep, 1); got != exp {
					t.Fatalf("bit-vector kernel (keep %v): %d, want %d (τ=%d)", keep, got, exp, tau)
				}
				if got := rows.bounded(a, y, tau, keep, 65); got != exp {
					t.Fatalf("row loop (keep %v): %d, want %d (τ=%d)", keep, got, exp, tau)
				}
			}
			if exp > tau {
				continue
			}
			if len(rows.b) > 0 && (rows.bits || bits.bits != (bits.w <= 64)) {
				t.Fatalf("band of %d diagonals: bit-vector scratch kept bits %v, row loop %v", bits.w, bits.bits, rows.bits)
			}
			for _, late := range []bool{false, true} {
				mb, mr := bits.Alignment(nil, late), rows.Alignment(nil, late)
				if !slices.Equal(mb, mr) {
					t.Fatalf("gapsLate %v: bit-vector alignment %v, row loop %v (τ=%d)", late, mb, mr, tau)
				}
				if c := AlignmentCost(a, y, mr); c != exp {
					t.Fatalf("gapsLate %v: alignment %v costs %d, want %d", late, mr, c, exp)
				}
			}
		}
	})
}

// AlignmentCost is the cost of the alignment match (a's position → b's, −1
// for a deletion), or −1 when match is not monotone.
func AlignmentCost(a, b, match []int32) int {
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

// TestBitBandLateSymbols runs the bit-vector kernel on strings whose symbols
// all share one bucket of the masks' table and half of which first occur
// late in the masks' string, so they enter the table (in a chain of
// collisions) only when the band reaches them: the masks filled in along the
// way must give the distance a full build would.
func TestBitBandLateSymbols(t *testing.T) {
	const n = 100 // a table of 256 slots
	var syms []int32
	for c := int32(0); len(syms) < 8; c++ {
		if uint32(c)*0x9E3779B9>>24 == 7 {
			syms = append(syms, c)
		}
	}
	rng := rand.New(rand.NewSource(7))
	var s Scratch
	for iter := 0; iter < 400; iter++ {
		x := make([]int32, n)
		for i := range x {
			k := rng.Intn(4)
			if i >= 60 {
				k = rng.Intn(8)
			}
			x[i] = syms[k]
		}
		y := slices.Clone(x)
		for e := rng.Intn(12); e >= 0; e-- {
			y[rng.Intn(n)] = syms[rng.Intn(8)]
		}
		want := Levenshtein(x, y)
		for _, tau := range []int{4, 8, 16, 40} {
			if got := s.bounded(x, y, tau, false, 1); got != min(want, tau+1) {
				t.Fatalf("τ=%d: %d, want %d", tau, got, min(want, tau+1))
			}
		}
	}
}

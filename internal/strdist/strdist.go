// Package strdist implements string edit distance over interned label
// sequences. It is the substrate of the STR similarity-join baseline (Guha et
// al.), which lower-bounds the tree edit distance of two trees by the string
// edit distance of their preorder (and postorder) label sequences.
package strdist

import "sync"

// Levenshtein returns the unit-cost edit distance (insert, delete,
// substitute) between the two sequences. It runs in O(|a|·|b|) time and
// O(min(|a|,|b|)) space.
func Levenshtein(a, b []int32) int {
	if len(a) < len(b) {
		a, b = b, a
	}
	// b is the shorter sequence; one rolling row of len(b)+1.
	if len(b) == 0 {
		return len(a)
	}
	row := make([]int, len(b)+1)
	for j := range row {
		row[j] = j
	}
	for i := 1; i <= len(a); i++ {
		prev := row[0] // row[i-1][j-1]
		row[0] = i
		for j := 1; j <= len(b); j++ {
			cur := row[j]
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			best := prev + cost
			if d := row[j] + 1; d < best {
				best = d
			}
			if d := row[j-1] + 1; d < best {
				best = d
			}
			row[j] = best
			prev = cur
		}
	}
	return row[len(b)]
}

// Bounded returns the edit distance between a and b if it is at most tau, and
// otherwise tau+1. It is Scratch.Bounded on a pooled scratch: callers that
// own per-worker memory (the TED verifier) hold a Scratch and skip the pool.
func Bounded(a, b []int32, tau int) int {
	s := scratchPool.Get().(*Scratch)
	d := s.Bounded(a, b, tau)
	scratchPool.Put(s)
	return d
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// Scratch is the band row of the bounded kernel, reused across calls: one
// Scratch serves one goroutine and makes Bounded allocation-free once the row
// has grown to the widest band it has met (at most tau+3 cells).
type Scratch struct {
	row []int32
}

// Bounded is the one τ-banded string kernel of the module: the edit distance
// between a and b if it is at most tau, otherwise tau+1.
//
// The common prefix and suffix are stripped first — edit distance is
// unchanged by removing a shared affix, and near-duplicate sequences collapse
// to their few differing cells. What is left runs Ukkonen's cutoff: with
// d = |a|−|b| ≥ 0, a path of cost ≤ tau that visits diagonal o = j−i pays at
// least |o| to reach it and |o+d| to come back to the final diagonal −d, so
// only diagonals −(tau+d)/2 … (tau−d)/2 matter: at most tau+1 of them. The
// band lives in one skewed row updated in place — slot k of row i holds cell
// (i, i+lo+k−1), so a cell's diagonal neighbour is its own slot's old value,
// its upper neighbour the old value one slot right, and its left neighbour
// the value just written (kept in a register); slots 0 and w+1 are sentinel
// pads. The run stops as soon as a whole row exceeds tau. Time is
// O(tau·min(|a|,|b|)), with no writes outside the band.
func (s *Scratch) Bounded(a, b []int32, tau int) int {
	if tau < 0 {
		return tau + 1
	}
	if len(a) < len(b) {
		a, b = b, a
	}
	d := len(a) - len(b)
	if d > tau {
		return tau + 1
	}
	for len(b) > 0 && a[0] == b[0] {
		a, b = a[1:], b[1:]
	}
	for len(b) > 0 && a[len(a)-1] == b[len(b)-1] {
		a, b = a[:len(a)-1], b[:len(b)-1]
	}
	n, m := len(a), len(b)
	if m == 0 {
		return n // = d ≤ tau
	}
	// No distance exceeds n, so a wider band decides nothing more.
	t := tau
	if t > n {
		t = n
	}
	lo, hi := -((t + d) / 2), (t-d)/2
	w := hi - lo + 1
	if cap(s.row) < w+2 {
		s.row = make([]int32, w+2)
	}
	row := s.row[:w+2]
	const inf = int32(1) << 30
	// Row 0: cell (0, j) = j for the in-band columns 0 ≤ j ≤ m, between the
	// two pads.
	row[0], row[w+1] = inf, inf
	for k := 1; k <= w; k++ {
		if j := lo + k - 1; j >= 0 && j <= m {
			row[k] = int32(j)
		} else {
			row[k] = inf
		}
	}
	t32 := int32(t)
	for i := 1; i <= n; i++ {
		// Slot k holds column j = i+lo+k−1; the row's cells with 1 ≤ j ≤ m are
		// slots kLo..kHi. Slots left of column 0 have been inf since row 0;
		// slots right of column m are never read again (the upper neighbour
		// of slot kHi is the previous row's column m).
		kLo, kHi := 2-i-lo, m-i-lo+1
		left, rowMin := inf, inf
		if kLo <= 1 {
			kLo = 1
		} else {
			// Column 0 is in band: the boundary cell (i, 0) = i.
			left = int32(i)
			rowMin = left
			row[kLo-1] = left
		}
		if kHi > w {
			kHi = w
		}
		ai := a[i-1]
		bj := b[i+lo+kLo-2 : i+lo+kHi-1]
		cells := row[kLo : kHi+2] // the row's slots and one upper neighbour past them
		for x, c := range bj {
			v := cells[x] // diagonal
			if ai != c {
				v++
			}
			if up := cells[x+1] + 1; up < v {
				v = up
			}
			if l := left + 1; l < v {
				v = l
			}
			cells[x] = v
			left = v
			if v < rowMin {
				rowMin = v
			}
		}
		if rowMin > t32 {
			return tau + 1
		}
	}
	if v := int(row[1-d-lo]); v <= tau {
		return v
	}
	return tau + 1
}

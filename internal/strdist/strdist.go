// Package strdist implements string edit distance over interned label
// sequences. It is the substrate of the STR similarity-join baseline (Guha et
// al.), which lower-bounds the tree edit distance of two trees by the string
// edit distance of their preorder (and postorder) label sequences, and of the
// TED verifier's screen and certificate, which also read the alignment.
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

// Scratch is the band memory of the bounded kernel, reused across calls: one
// Scratch serves one goroutine and makes Bounded and Aligned allocation-free
// once it has grown to the largest band it has met. Bounded keeps one row (at
// most tau+3 cells); Aligned keeps every row of the core and what Alignment
// needs to trace back through them.
type Scratch struct {
	row, band []int32
	// The last Aligned call: its core strings (longer first), the band's
	// first diagonal and width, the stripped prefix length, whether the
	// caller's arguments were swapped, and their lengths.
	a, b       []int32
	lo, w, pre int
	swapped    bool
	lenA, lenB int
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
func (s *Scratch) Bounded(a, b []int32, tau int) int { return s.bounded(a, b, tau, false) }

// Aligned is Bounded that keeps every row of the band instead of one: the
// same cells, each row written beside the previous one rather than over it,
// in (n+1)·(tau+3) cells for a core of n. When it returns a distance ≤ tau,
// Alignment traces an optimal alignment of a and b back through them.
func (s *Scratch) Aligned(a, b []int32, tau int) int { return s.bounded(a, b, tau, true) }

func (s *Scratch) bounded(a, b []int32, tau int, keep bool) int {
	if tau < 0 {
		return tau + 1
	}
	lenA, lenB, swapped := len(a), len(b), false
	if len(a) < len(b) {
		a, b, swapped = b, a, true
	}
	d := len(a) - len(b)
	if d > tau {
		return tau + 1
	}
	pre := 0
	for len(b) > 0 && a[0] == b[0] {
		a, b = a[1:], b[1:]
		pre++
	}
	for len(b) > 0 && a[len(a)-1] == b[len(b)-1] {
		a, b = a[:len(a)-1], b[:len(b)-1]
	}
	n, m := len(a), len(b)
	if keep {
		s.a, s.b, s.pre, s.swapped, s.lenA, s.lenB = a, b, pre, swapped, lenA, lenB
	}
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
	// Row i lives at buf[i·stride:]: stride 0 updates one row in place, a
	// full row's stride keeps them all.
	buf, stride := s.row, 0
	if keep {
		buf, stride = s.band, w+2
		s.lo, s.w = lo, w
	}
	if size := n*stride + w + 2; cap(buf) < size {
		buf = make([]int32, size)
	}
	if keep {
		s.band = buf
	} else {
		s.row = buf
	}
	const inf = int32(1) << 30
	// Row 0: cell (0, j) = j for the in-band columns 0 ≤ j ≤ m, between the
	// two pads.
	row := buf[:w+2]
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
		prev := row
		row = buf[i*stride : i*stride+w+2]
		row[0], row[w+1] = inf, inf
		// Slot k holds column j = i+lo+k−1; the row's cells with 1 ≤ j ≤ m are
		// slots kLo..kHi. Slots left of column 0 are never read; slots right
		// of column m are never read again (the upper neighbour of slot kHi is
		// the previous row's column m).
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
		up := prev[kLo : kHi+2] // the previous row's slots and one upper neighbour past them
		cells := row[kLo : kHi+1]
		for x, c := range bj {
			v := up[x] // diagonal
			if ai != c {
				v++
			}
			if u := up[x+1] + 1; u < v {
				v = u
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

// Alignment writes an optimal alignment of the last Aligned call's pair,
// which must have returned a distance ≤ tau, into match (grown to len(a) and
// returned): match[i] is the position of b that a[i] is aligned with — equal
// or substituted — and −1 when a[i] is deleted. The stripped prefix and
// suffix align position by position; the core is traced back from its last
// cell through the kept band. Every step reproduces its cell's value, so the
// alignment costs exactly the distance. Where steps tie, gapsLate picks one
// of the two extreme optimal alignments: a gap (a deletion from the longer
// string first) over a match, which places the gaps as late in the strings
// as they can go, or a match over a gap, which places them as early.
func (s *Scratch) Alignment(match []int32, gapsLate bool) []int32 {
	if cap(match) < s.lenA {
		match = make([]int32, s.lenA)
	}
	match = match[:s.lenA]
	a, b, pre, stride := s.a, s.b, s.pre, s.w+2
	n, m := len(a), len(b)
	// The caller's a is the longer core string unless the call swapped them.
	coreA := n
	if s.swapped {
		coreA = m
	}
	for i := 0; i < pre; i++ {
		match[i] = int32(i)
	}
	for i := pre; i < pre+coreA; i++ {
		match[i] = -1
	}
	for i, j := pre+coreA, s.lenB-(s.lenA-pre-coreA); i < s.lenA; i, j = i+1, j+1 {
		match[i] = int32(j)
	}
	for i, j := n, m; i > 0 && j > 0; {
		k := j - i - s.lo + 1 // the slot of cell (i, j) in row i
		row, prev := s.band[i*stride:(i+1)*stride], s.band[(i-1)*stride:i*stride]
		c := int32(1)
		if a[i-1] == b[j-1] {
			c = 0
		}
		gap := gapsLate || prev[k]+c != row[k]
		switch {
		case gap && prev[k+1]+1 == row[k]:
			i--
		case gap && row[k-1]+1 == row[k]:
			j--
		default:
			i, j = i-1, j-1
			if s.swapped {
				match[pre+j] = int32(pre + i)
			} else {
				match[pre+i] = int32(pre + j)
			}
		}
	}
	return match
}

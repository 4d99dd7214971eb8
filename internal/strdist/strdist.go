// Package strdist implements string edit distance over interned label
// sequences. It is the substrate of the STR similarity-join baseline (Guha et
// al.), which lower-bounds the tree edit distance of two trees by the string
// edit distance of their preorder (and postorder) label sequences, and of the
// TED verifier's screen and certificate, which also read the alignment.
package strdist

import (
	"slices"
	"sync"
)

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
	s.Reset()
	scratchPool.Put(s)
	return d
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// minBitsBand is the narrowest band, in diagonals, that runs the bit-vector
// kernel; the widest is 64, one machine word. Narrower bands (every τ ≤ 3)
// run the row loop, which costs less there than the match masks do.
const minBitsBand = 5

// maxMaskWords caps the match masks of one string at their largest size,
// (|x|+1)·(|x|/64+3) words: a first argument over about 1 300 symbols runs
// the row loop.
const maxMaskWords = 1 << 15

// Scratch is the band memory of the bounded kernel, reused across calls: one
// Scratch serves one goroutine and makes Bounded and Aligned allocation-free
// once it has grown to the largest band it has met.
//
// A band of 5 to 64 diagonals runs the bit-vector kernel, over match masks of
// the first argument's whole string. The masks are begun when that string
// changes, filled in as far as the bands reach, and reused while the same
// slice comes back as the first argument, so its contents must not change
// while the scratch holds it; Reset drops it.
// Bounded keeps one band row (the row loop, at most tau+3 cells) or three
// words (the bit-vector kernel); Aligned keeps every row or every column's
// words, and what Alignment needs to trace back through them.
type Scratch struct {
	row, band []int32
	// The match masks of x: row r of peq, at peq[r:r+nw] for the offset r that
	// tab holds for a symbol (0, all clear, for a symbol not in x), has bit
	// 64+i set iff x[i] is that symbol, for the positions from ≤ i < built.
	x           []int32
	from, built int
	nw          int
	shift       uint32
	tab         []maskSlot
	peq         []uint64
	// cols holds Aligned's VP, HP and D0 words per column.
	cols []uint64
	// The last Aligned call: its core strings (longer first), the band's
	// first diagonal and width, the stripped prefix length, whether the
	// caller's arguments were swapped, their lengths, and which kernel kept
	// the band.
	a, b       []int32
	lo, w, pre int
	swapped    bool
	lenA, lenB int
	bits       bool
}

// maskSlot is one entry of the open-addressing table from a symbol to its
// mask row; row 0 marks an empty slot.
type maskSlot struct{ sym, row int32 }

// Reset drops the strings the scratch holds: the one its match masks were
// built for, and the last Aligned pair. Its memory stays. A pooled scratch
// is Reset before it goes back, so no caller's string outlives its use.
func (s *Scratch) Reset() { s.x, s.a, s.b = nil, nil, nil }

// Bounded is the one τ-banded string kernel of the module: the edit distance
// between a and b if it is at most tau, otherwise tau+1.
//
// The common prefix and suffix are stripped first — edit distance is
// unchanged by removing a shared affix, and near-duplicate sequences collapse
// to their few differing cells. What is left runs Ukkonen's cutoff: with
// d = |a|−|b| ≥ 0, a path of cost ≤ tau that visits diagonal o = j−i pays at
// least |o| to reach it and |o+d| to come back to the final diagonal −d, so
// only diagonals −(tau+d)/2 … (tau−d)/2 matter: at most tau+1 of them. A band
// of minBitsBand to 64 diagonals runs bitBand, any other the row loop; both
// compute the same cell values (the minimum over paths inside the band) and
// stop once no path of cost ≤ tau is left. Time is O(tau·min(|a|,|b|)) for
// the row loop and O(|a|+|b|) word operations for the bit-vector kernel, with
// no writes outside the band.
func (s *Scratch) Bounded(a, b []int32, tau int) int { return s.bounded(a, b, tau, false, minBitsBand) }

// Aligned is Bounded that keeps the whole band instead of one row: the row
// loop writes each row beside the previous one rather than over it, in
// (n+1)·(tau+3) cells for a core of n, and the bit-vector kernel keeps three
// words per column. When it returns a distance ≤ tau, Alignment traces an
// optimal alignment of a and b back through them.
func (s *Scratch) Aligned(a, b []int32, tau int) int { return s.bounded(a, b, tau, true, minBitsBand) }

// bounded runs Bounded (keep false) or Aligned (keep true); bands of minBits
// to 64 diagonals run the bit-vector kernel. The tests pass minBits 1 and 65
// to run each kernel on every band.
func (s *Scratch) bounded(a, b []int32, tau int, keep bool, minBits int) int {
	if tau < 0 {
		return tau + 1
	}
	x := a
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
		s.a, s.b, s.pre, s.swapped, s.lenA, s.lenB, s.bits = a, b, pre, swapped, lenA, lenB, false
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
	if w >= minBits && w <= 64 && s.masks(x) {
		var v int
		if swapped {
			// The masks' string x is the shorter core b, the columns run
			// over a.
			v = s.bitBand(a, pre, lo, w, -d-lo, d, t, keep)
		} else {
			// Rows over the longer core a, columns over b: diagonal
			// p−q = −o.
			lo = -hi
			v = s.bitBand(b, pre, lo, w, d+hi, d, t, keep)
		}
		if keep {
			s.lo, s.w, s.bits = lo, w, true
		}
		if v > t {
			return tau + 1
		}
		return v
	}
	// The row loop. The band lives in one skewed row updated in place — slot
	// k of row i holds cell (i, i+lo+k−1), so a cell's diagonal neighbour is
	// its own slot's old value, its upper neighbour the old value one slot
	// right, and its left neighbour the value just written (kept in a
	// register); slots 0 and w+1 are sentinel pads. Row i lives at
	// buf[i·stride:]: stride 0 updates one row in place, a full row's stride
	// keeps them all.
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

// masks makes x the masks' string, keeping what is filled in of its masks
// if x is the slice they were begun for, and reports whether they fit
// maxMaskWords. bitBand fills them in as far as its band reaches.
func (s *Scratch) masks(x []int32) bool {
	if len(x) == len(s.x) && &x[0] == &s.x[0] {
		return true
	}
	nw := len(x)/64 + 3
	if (len(x)+1)*nw > maxMaskWords {
		return false
	}
	size, bits := 16, uint32(4)
	for size < 2*len(x) {
		size, bits = size<<1, bits+1
	}
	if cap(s.tab) < size {
		s.tab = make([]maskSlot, size)
	}
	s.tab = s.tab[:size]
	clear(s.tab)
	s.peq = slices.Grow(s.peq[:0], nw)[:nw]
	clear(s.peq)
	s.x, s.nw, s.shift, s.from, s.built = x, nw, 32-bits, 0, 0
	return true
}

// fill fills in the masks of x[i:j].
func (s *Scratch) fill(i, j int) {
	x, tab, peq, nw, shift := s.x, s.tab, s.peq, s.nw, s.shift
	tmask := uint32(len(tab) - 1)
	for ; i < j; i++ {
		c := x[i]
		h := uint32(c) * 0x9E3779B9 >> shift
		for tab[h].row != 0 && tab[h].sym != c {
			h = (h + 1) & tmask
		}
		if tab[h].row == 0 {
			tab[h] = maskSlot{c, int32(len(peq))}
			peq = slices.Grow(peq, nw)[:len(peq)+nw]
			clear(peq[len(peq)-nw:])
		}
		bit := 64 + i
		peq[int(tab[h].row)+bit>>6] |= 1 << (bit & 63)
	}
	s.peq = peq
}

// bitBand is the bit-vector kernel (Myers, JACM 1999, in Hyyrö's banded
// form): the cell values of the row loop, computed a column at a time in three
// machine words. Rows are the core of the masks' string x (which starts at
// x[pre]) and columns the other core y. Bit k of column q stands for cell
// (p, q) with p = q+lo+k, so a column is the band's w diagonals lo … lo+w−1
// (diagonal p−q, lo ≤ 0) and the final cell lies on bit kf. VP and VN mark
// the vertical differences C(p,q)−C(p−1,q) of +1 and −1, HP the horizontal
// differences C(p,q)−C(p,q−1) of +1, D0 the cells equal to their diagonal
// neighbour; the column's match word is the masks' row of y[q−1] read from
// bit 64+pre+q+lo−1 on. With keep, column q's VP, HP and D0 are kept at
// cols[3(q−1):].
//
// The band's edges: bit 0's upper neighbour and bit w−1's left neighbour lie
// outside the band, and the kernel takes each as one more than the diagonal
// neighbour, which never wins the minimum — as the row loop's sentinel pads
// never do. Rows above row 0 are virtual (C(p,q) = q−p, no symbol matches
// there), which leaves row 0 at C(0,q) = q; rows past x's core never reach
// the rows above them. A diagonal never falls, so the final cell is at least
// the value kept on its diagonal: the run stops as soon as that value
// exceeds t, and the last column's is the distance (d = |x|−|y| in absolute
// value starts it).
func (s *Scratch) bitBand(y []int32, pre, lo, w, kf, d, t int, keep bool) int {
	// The band reads x from its row 1, x[pre], on: the masks are filled in
	// from there (or from where they already start, if before), a stretch
	// at a time as the band reaches past them.
	if s.from == s.built {
		s.from, s.built = pre, pre
	} else if pre < s.from {
		s.fill(pre, s.from)
		s.from = pre
	}
	peq, tab, shift, tmask := s.peq, s.tab, s.shift, uint32(len(s.tab)-1)
	built, xlen := s.built, len(s.x)
	mask := ^uint64(0) >> (64 - w)
	top := uint64(1) << (w - 1)
	// Column 0: C(p, 0) = |p|, falling down to row 0 and rising after it.
	vn := ^uint64(0) >> (63 + lo)
	vp := mask &^ vn
	v := d
	var cols []uint64
	if keep {
		if cap(s.cols) < 3*len(y) {
			s.cols = make([]uint64, 3*len(y))
		}
		cols = s.cols[:3*len(y)]
	}
	base, kb := 63+pre+lo, uint(kf)
	for q, c := range y {
		sb := base + q + 1
		if sb+w-64 > built && built < xlen {
			// The band reaches past the masks built so far: fill in the
			// next stretch of x.
			to := min(sb+w-64+16, xlen)
			s.fill(built, to)
			peq, built, s.built = s.peq, to, to
		}
		h := uint32(c) * 0x9E3779B9 >> shift
		for tab[h].row != 0 && tab[h].sym != c {
			h = (h + 1) & tmask
		}
		i, sh := int(tab[h].row)+sb>>6, uint(sb&63)
		eq := (peq[i]>>sh | peq[i+1]<<(64-sh)) & mask
		if z := q + 1 + lo; z <= 0 {
			// Bits 0 … −z are rows p ≤ 0: no symbol there.
			eq &^= ^uint64(0) >> uint(63+z)
		}
		// The previous column's bit k+1 is this column's row of bit k; bit
		// w−1's left neighbour is outside the band (+1).
		vp, vn = vp>>1|top, vn>>1
		x := eq | vn
		d0 := ((vp & x) + vp) ^ vp | x
		hp := vn | ^(d0 | vp)
		hn := vp & d0
		v += int(^d0 >> kb & 1)
		// Bit 0's upper neighbour is outside the band (+1).
		hin := hp<<1 | 1
		vp = (hn<<1 | ^(d0 | hin)) & mask
		vn = hin & d0 & mask
		if keep {
			col := cols[3*q : 3*q+3]
			col[0], col[1], col[2] = vp, hp, d0
		}
		if v > t {
			return v
		}
	}
	return v
}

// Alignment writes an optimal alignment of the last Aligned call's pair,
// which must have returned a distance ≤ tau, into match (grown to len(a) and
// returned): match[i] is the position of b that a[i] is aligned with — equal
// or substituted — and −1 when a[i] is deleted. The stripped prefix and
// suffix align position by position; the core is traced back from its last
// cell through the kept band, whichever kernel kept it. Every step
// reproduces its cell's value, so the alignment costs exactly the distance.
// Where steps tie, gapsLate picks one of the two extreme optimal alignments:
// a gap (a deletion from the longer string first) over a match, which places
// the gaps as late in the strings as they can go, or a match over a gap,
// which places them as early.
//
// Both kernels give the same alignment: they keep the same value in every
// band cell, and a cell outside the band is never a step (the row loop's
// pad; a bit the bit-vector kernel leaves clear at the band's edge).
func (s *Scratch) Alignment(match []int32, gapsLate bool) []int32 {
	if cap(match) < s.lenA {
		match = make([]int32, s.lenA)
	}
	match = match[:s.lenA]
	a, b, pre := s.a, s.b, s.pre
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
	stride := s.w + 2
	for i, j := n, m; i > 0 && j > 0; {
		// Whether the diagonal, upper and left neighbours of cell (i, j) —
		// row i of the longer core, column j of the shorter — reproduce its
		// value; a neighbour outside the band never does.
		var diag, up, left bool
		if !s.bits {
			k := j - i - s.lo + 1 // the slot of cell (i, j) in row i
			row, prev := s.band[i*stride:(i+1)*stride], s.band[(i-1)*stride:i*stride]
			c := int32(1)
			if a[i-1] == b[j-1] {
				c = 0
			}
			diag = prev[k]+c == row[k]
			if gapsLate || !diag {
				up, left = prev[k+1]+1 == row[k], row[k-1]+1 == row[k]
			}
		} else {
			// Bit k of column q is cell (p, q): p indexes the masks'
			// string, q the other. The cell is one above its upper
			// neighbour iff VP has the bit, one above its left one iff HP
			// has it (neither has it at a band edge), and equal to its
			// diagonal one iff D0 has it — a match when the symbols are
			// equal, a substitution when not.
			p, q := i, j
			if s.swapped {
				p, q = j, i
			}
			k := uint(p - q - s.lo)
			col := s.cols[3*q-3 : 3*q]
			above, before := col[0]>>k&1 == 1, col[1]>>k&1 == 1
			diag = (col[2]>>k&1 == 1) == (a[i-1] == b[j-1])
			up, left = above, before
			if s.swapped {
				up, left = before, above
			}
		}
		gap := gapsLate || !diag
		switch {
		case gap && up:
			i--
		case gap && left:
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

// Threshold-aware (τ-banded) Zhang–Shasha over arena views. The similarity
// joins never need an unbounded distance: every candidate pair comes with the
// join threshold τ, and the verifier only has to decide TED ≤ τ — exactly
// when it is, the exact distance is wanted. This file implements that
// tri-state verifier as a banded variant of the DP in zs.go, in the spirit of
// Touzet's k-strip algorithms for similar trees, over the TreeView arrays of
// arena.go. Five layers, each sound on its own (DESIGN.md, "Threshold-aware
// verification", has the arguments):
//
//   - the size and label lower bounds reject a pair with no DP at all;
//   - so does the traversal-string screen: the τ-banded string edit distances
//     of the two postorder and of the two preorder label sequences both
//     lower-bound TED, and the view already holds both (Labels, and RLabels —
//     the mirrored postorder is the preorder reversed, and edit distance does
//     not change when both strings are reversed);
//   - the certificate accepts a pair with no DP: when an optimal alignment of
//     the screen's postorder (or mirrored postorder) strings preserves
//     ancestry, it is a tree mapping of cost sed ≤ TED, so TED = sed. The
//     screen's one pass per string (strdist.Scratch.Aligned: bit-parallel,
//     a machine word per band column, for bands of 5 to 64 diagonals, over
//     match masks kept while the pair's first view repeats) keeps what the
//     certificate's traceback reads, so no second string pass runs;
//   - keyroot pairs whose leftmost leaves sit more than τ postorder
//     positions apart are never visited (no ≤ τ mapping can use any
//     subtree-pair entry they would produce);
//   - every forest DP touches only cells within τ of its diagonal (any cell
//     farther out has forest distance > τ by the size argument) and is
//     abandoned as soon as an entire row of its band exceeds τ (the frontier
//     can never recover).
//
// On a join's candidates the screen and the certificate settle all but a few
// percent of the pairs at most, so the DP is their rare fallback and stays
// plain: one forest DP per keyroot pair in the window.
//
// Storage is band-compacted:
//
//   - the subtree-distance matrix stores only the diagonal band it can ever
//     touch — |ai−bj| ≤ 2τ, from the keyroot window plus the cell band — in
//     a skewed layout of n1·(4τ+1) int16 cells, so the per-pair sentinel
//     init is O(n1·τ), not O(n1·n2);
//   - the forest band is skew-packed with shared sentinel pad cells between
//     adjacent rows, so out-of-band neighbour reads land on a pad instead of
//     being branched around — the inner loop has no band tests;
//   - cells are int16 (distances are capped at τ+1 ≤ maxViewBand+1), and the
//     scratch is pooled, so steady-state verification allocates nothing per
//     pair.
//
// The unbounded DP in zs.go remains the oracle; the property tests sweep τ
// and require verdict-and-distance agreement with it.
package ted

import (
	"slices"
	"sync"
	"sync/atomic"

	"treejoin/internal/strdist"
)

// Counters instruments the τ-banded verifier. All updates are atomic, so one
// Counters value may be shared by every concurrent verify worker of a join;
// a nil *Counters disables counting. The engine folds these into
// sim.Stats after a run.
type Counters struct {
	// DPAvoided counts candidate pairs rejected with no DP at all: by the
	// size bound, the label bound or the traversal-string screen.
	DPAvoided atomic.Int64
	// Certified counts candidate pairs accepted with no DP: a screen
	// alignment was a tree mapping, which settles the exact distance. Every
	// candidate is counted once by DPAvoided, Certified or a strategy.
	Certified atomic.Int64
	// SeqRejects counts the pairs among DPAvoided that passed the size and
	// label bounds and were rejected by the traversal-string screen.
	SeqRejects atomic.Int64
	// KeyrootsSkipped counts keyroot-pair forest DPs pruned by the
	// positional (leftmost-leaf distance) skip.
	KeyrootsSkipped atomic.Int64
	// BandAborts counts forest DPs cut short because an entire row of the
	// band exceeded τ.
	BandAborts atomic.Int64
	// StrategyLeft and StrategyRight count candidate pairs whose DP ran
	// under the left-path or right-path (mirrored) decomposition — the
	// per-pair outcomes of the RTED-style strategy choice. Only pairs that
	// reach a DP are counted; pairs settled before it never pick.
	StrategyLeft  atomic.Int64
	StrategyRight atomic.Int64
}

func (tc *Counters) addDPAvoided() {
	if tc != nil {
		tc.DPAvoided.Add(1)
	}
}

func (tc *Counters) addSeqReject() {
	if tc != nil {
		tc.DPAvoided.Add(1)
		tc.SeqRejects.Add(1)
	}
}

func (tc *Counters) addCertified() {
	if tc != nil {
		tc.Certified.Add(1)
	}
}

func (tc *Counters) addKeyrootsSkipped(n int64) {
	if tc != nil && n > 0 {
		tc.KeyrootsSkipped.Add(n)
	}
}

func (tc *Counters) addBandAborts(n int64) {
	if tc != nil && n > 0 {
		tc.BandAborts.Add(n)
	}
}

func (tc *Counters) addStrategy(dec Decomp) {
	if tc == nil {
		return
	}
	if dec == DecompLeft {
		tc.StrategyLeft.Add(1)
	} else {
		tc.StrategyRight.Add(1)
	}
}

// Decomp selects the decomposition the arena verifier runs: the per-pair
// strategy-driven default, or a forced direction for ablation benchmarks and
// the property tests. A forced direction always runs the DP: it skips the
// certificate.
type Decomp int

const (
	DecompAuto  Decomp = iota // pick per pair from the strategy costs
	DecompLeft                // force the left-path decomposition
	DecompRight               // force the right-path (mirrored) decomposition
)

// maxViewBand bounds the band half-width of the int16 kernel (cell values
// reach 2·(τ+1), which must fit in int16). A pair whose clamped band exceeds
// it — τ beyond 16000 on trees at least that large, which no paper-scale
// workload comes near — runs the unbounded DP of zs.go over the same view
// arrays instead, with no certificate (whose kept string band is as large).
// A variable only so the overflow test can lower it.
var maxViewBand = 16000

// VerifyScratch is the reusable DP memory of the arena verifier: the
// band-packed subtree-distance matrix and the skew-packed forest band with
// its sentinel pads. One scratch serves one verify worker across a whole
// batch of candidates; AcquireScratch/ReleaseScratch pool them so
// steady-state batched verification allocates nothing per pair.
type VerifyScratch struct {
	td []int16
	fd []int16
	// seq and rseq are the bands of the postorder and mirrored-postorder
	// string screens, kept for the certificate's traceback; match and cnt
	// are the certificate's alignment and its matched-node prefix counts.
	// labA and labB hold the sorted label multisets of DistanceBounded's
	// one-off label bound.
	seq, rseq  strdist.Scratch
	match, cnt []int32
	labA, labB []int32
}

var verifyScratchPool = sync.Pool{New: func() any { return new(VerifyScratch) }}

// AcquireScratch takes a verify scratch from the pool.
func AcquireScratch() *VerifyScratch { return verifyScratchPool.Get().(*VerifyScratch) }

// ReleaseScratch returns a scratch obtained from AcquireScratch. The string
// screens' scratches drop the views' strings they hold (their match masks are
// keyed to them), so a pooled scratch outlives no view.
func ReleaseScratch(s *VerifyScratch) {
	s.seq.Reset()
	s.rseq.Reset()
	verifyScratchPool.Put(s)
}

// ensureView sizes the scratch for one pair's DP, sets every subtree entry to
// the sentinel over, and writes fd's constant cells for the band half-width
// bt:
//
//   - the pad cells — every multiple of the skewed stride 2·bt+2 holds the
//     sentinel — that out-of-band neighbour reads land on;
//   - the DP boundary row and column, fd(0,dj)=dj and fd(di,0)=di for
//     di,dj ≤ bt, which depend on bt alone.
//
// No forest DP ever overwrites any of these (in-band writes start at row 1,
// column 1, and stay strictly inside their row block), so every forest DP of
// the pair starts with zero setup.
func (s *VerifyScratch) ensureView(tdLen, fdLen, bt int, over int16) {
	s.td = slices.Grow(s.td[:0], tdLen)[:tdLen]
	s.fd = slices.Grow(s.fd[:0], fdLen)[:fdLen]
	for i := range s.td {
		s.td[i] = over
	}
	stride := 2*bt + 2
	for k := 0; k < fdLen; k += stride {
		s.fd[k] = over
	}
	// Boundary row: cell (0, dj) sits at offset bt+1+dj of block 0 (always
	// inside the buffer — a block is 2bt+2 cells and dj ≤ bt).
	for dj := 0; dj <= bt; dj++ {
		s.fd[bt+1+dj] = int16(dj)
	}
	// Boundary column: cell (di, 0) sits at offset bt+1−di of block di, for
	// the blocks that exist (di can exceed the smaller tree's size).
	for di := 1; di <= bt && di*stride+bt+1-di < fdLen; di++ {
		s.fd[di*stride+bt+1-di] = int16(di)
	}
}

// DistanceBoundedView reports whether TED(a, b) ≤ tau from arena views: the
// size and label lower bounds and the traversal-string screen run first (no
// DP at all when any proves the pair distant), then the certificate (no DP
// when a screen alignment is a tree mapping), then the strategy-chosen
// decomposition's band-compacted DP.
// The tri-state contract: on true the returned distance is exact; on false
// the distance is only known to exceed tau and tau+1 is returned. tc, when
// non-nil, accumulates the verifier's pruning and strategy counters. The
// caller owns the scratch (one per worker, from AcquireScratch), which is
// what makes a batched verify loop allocation-free. Both trees must share
// one LabelTable.
func DistanceBoundedView(a, b *TreeView, tau int, s *VerifyScratch, tc *Counters) (int, bool) {
	return DistanceBoundedViewDecomp(a, b, tau, DecompAuto, s, tc)
}

// DistanceBoundedViewDecomp is DistanceBoundedView with the decomposition
// forced (DecompLeft/DecompRight) or strategy-driven (DecompAuto). Forced
// directions skip the certificate and back the strategy-ablation benchmarks
// and the DP's oracle tests; results are identical in every mode.
func DistanceBoundedViewDecomp(a, b *TreeView, tau int, dec Decomp, s *VerifyScratch, tc *Counters) (int, bool) {
	if a.T.Labels != b.T.Labels {
		panic("ted: trees must share a label table")
	}
	if tau < 0 {
		return tau + 1, false
	}
	n1, n2 := len(a.Labels), len(b.Labels)
	if d := n1 - n2; d > tau || -d > tau {
		tc.addDPAvoided()
		return tau + 1, false
	}
	if labelBoundExceeds(a.SortedLabels, b.SortedLabels, tau) {
		tc.addDPAvoided()
		return tau + 1, false
	}
	// All distances are ≤ n1+n2, so the band never needs to be wider.
	bt := tau
	if bt > n1+n2 {
		bt = n1 + n2
	}
	// The traversal-string screen. A TED edit script of cost k induces one of
	// cost ≤ k on the postorder strings and on the preorder strings, and
	// RLabels — the postorder of the mirrored tree — is the preorder read
	// backwards, which leaves the string distance as it is. When the pair may
	// be certified, the screens keep their bands for the traceback. a's
	// strings go first: each screen keeps the match masks of its first
	// string while a batch's candidates share their first view.
	certify := dec == DecompAuto && bt <= maxViewBand
	screen := (*strdist.Scratch).Bounded
	if certify {
		screen = (*strdist.Scratch).Aligned
	}
	post, pre := screen(&s.seq, a.Labels, b.Labels, tau), 0
	if post <= tau {
		pre = screen(&s.rseq, a.RLabels, b.RLabels, tau)
	}
	if post > tau || pre > tau {
		tc.addSeqReject()
		return tau + 1, false
	}
	// The certificate: TED ≥ max(post, pre), so only an alignment of that
	// cost can be a mapping, and one that is settles the distance.
	if certify && (post >= pre && s.certifies(&s.seq, a.Lml, b.Lml) || pre >= post && s.certifies(&s.rseq, a.Rml, b.Rml)) {
		tc.addCertified()
		return max(post, pre), true
	}
	if dec == DecompAuto {
		dec = chooseDecomp(a.CostL, a.CostR, b.CostL, b.CostR)
	}
	tc.addStrategy(dec)
	if bt > maxViewBand {
		// The band does not fit int16 cells: a threshold this loose prunes
		// next to nothing anyway, so run the unbounded DP over the chosen
		// decomposition's arrays and compare afterwards.
		if d := zs(a.zsArrays(dec), b.zsArrays(dec)); d <= tau {
			return d, true
		}
		return tau + 1, false
	}
	if dec == DecompLeft {
		return bandedView(a.Labels, a.Lml, a.Keyroots, b.Labels, b.Lml, b.Keyroots, tau, bt, s, tc)
	}
	return bandedView(a.RLabels, a.Rml, a.RKeyroots, b.RLabels, b.Rml, b.RKeyroots, tau, bt, s, tc)
}

// certifies reports whether one of the two extreme optimal alignments kept in
// x — of two postorder label strings whose leftmost-leaf arrays are alml and
// blml — is a tree mapping.
func (s *VerifyScratch) certifies(x *strdist.Scratch, alml, blml []int32) bool {
	for _, late := range [2]bool{true, false} {
		if s.match = x.Alignment(s.match, late); s.isMapping(alml, blml) {
			return true
		}
	}
	return false
}

// isMapping reports whether the alignment in s.match preserves ancestry. It
// is one-to-one and postorder-monotone, so with ancestry preserved it is a
// tree mapping (left-of follows: in postorder a node is preceded exactly by
// its descendants and the nodes left of it). Matched node i' < i descends
// from i iff i' ≥ lml(i), so the matched descendants of i are the matched
// pairs ranked from cnt_A(lml(i)) up — with cnt_X(p) the number of matched
// nodes of X before position p — and those of its partner j the ones ranked
// from cnt_B(lml(j)) up: ancestry is preserved iff the two ranks agree for
// every matched (i, j). One pass in O(|a|+|b|): lml(i) ≤ i, so both counts
// are written before they are read.
func (s *VerifyScratch) isMapping(alml, blml []int32) bool {
	n1, n2 := len(alml), len(blml)
	if cap(s.cnt) < n1+n2 {
		s.cnt = make([]int32, n1+n2)
	}
	cntA, cntB := s.cnt[:n1], s.cnt[n1:n1+n2]
	c, next := int32(0), int32(0) // matched so far; first position of b without a count
	for i, j := range s.match {
		cntA[i] = c
		if j < 0 {
			continue
		}
		for ; next <= j; next++ {
			cntB[next] = c
		}
		if cntA[alml[i]] != cntB[blml[j]] {
			return false
		}
		c++
	}
	return true
}

// zsArrays returns one decomposition's arrays in the form the unbounded DP of
// zs.go consumes (no node-id column: that DP never reads it).
func (v *TreeView) zsArrays(dec Decomp) *prep {
	if dec == DecompLeft {
		return &prep{labels: v.Labels, lml: v.Lml, keyroots: v.Keyroots}
	}
	return &prep{labels: v.RLabels, lml: v.Rml, keyroots: v.RKeyroots}
}

// chooseDecomp is the RTED-style per-pair strategy rule of the arena
// verifier: run the left-path decomposition iff the product of the
// trees' left costs does not exceed the product of their right costs (the
// product bounds the total DP work of the pair under each decomposition).
func chooseDecomp(aCostL, aCostR, bCostL, bCostR int64) Decomp {
	if aCostL*bCostL <= aCostR*bCostR {
		return DecompLeft
	}
	return DecompRight
}

// labelBoundExceeds reports whether the label lower bound of two sorted label
// multisets — max(|a|, |b|) minus the size of their intersection, as
// LabelLowerBound computes it — exceeds tau, by a linear merge that does not
// always finish: the verdict is returned as soon as the matched count reaches
// max(|a|,|b|)−tau (the bound can no longer exceed tau) or the remaining
// elements cannot reach it (the bound certainly does).
func labelBoundExceeds(a, b []int32, tau int) bool {
	m := len(a)
	if len(b) > m {
		m = len(b)
	}
	need := m - tau // matches required for the bound to stay ≤ tau
	if need <= 0 {
		return false
	}
	i, j := 0, 0
	for {
		ra, rb := len(a)-i, len(b)-j
		if rb < ra {
			ra = rb
		}
		if ra < need {
			return true
		}
		// need ≥ 1 and min(remaining) ≥ need, so both sides are non-empty.
		switch {
		case a[i] == b[j]:
			i++
			j++
			need--
			if need == 0 {
				return false
			}
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
}

// bandedView runs the band-compacted DP over one decomposition's arrays.
// Both keyroot loops walk ascending postorder, as the DP's data dependencies
// require: the sub-case of pair (i, j) reads subtree entries written under
// pairs (k1, k2) with k1 < i, or k1 = i and k2 < j (subtree intervals are
// laminar, so an inner keyroot precedes the outer one in postorder). The
// positional skip drops every pair whose leftmost leaves sit more than bt
// postorder positions apart.
func bandedView(al, alml, akr, bl, blml, bkr []int32, tau, bt int, s *VerifyScratch, tc *Counters) (int, bool) {
	n1, n2 := len(al), len(bl)
	over := int16(bt) + 1
	s.ensureView(n1*(4*bt+1), (n1+1)*(2*bt+2)+1, bt, over)
	t32 := int32(bt)
	var skipped, aborts int64
	for _, i := range akr {
		li := alml[i]
		for _, j := range bkr {
			if d := blml[j] - li; d > t32 || d < -t32 {
				skipped++
			} else if !bandedViewDP(al, alml, bl, blml, i, j, bt, over, s.td, s.fd) {
				aborts++
			}
		}
	}
	tc.addKeyrootsSkipped(skipped)
	tc.addBandAborts(aborts)
	if d := s.td[(n1-1)*4*bt+2*bt+(n2-1)]; d < over {
		return int(d), true
	}
	return tau + 1, false
}

// bandedViewDP is one keyroot pair's forest DP over the packed layouts. It
// reports false when the DP was abandoned: a whole row exceeded bt.
//
// Forest band: cell (di, dj) lives at di·(2bt+1) + dj + bt + 1 — row blocks
// of stride 2bt+2 whose boundary cells (the multiples of the stride) are
// sentinel pads shared between adjacent rows. The deletion read (di−1, dj)
// at idx−(2bt+1), the insertion read (di, dj−1) at idx−1, and the diagonal
// read at idx−(2bt+2) each land either on an in-band cell or exactly on a
// pad, so the inner loop needs no band tests: an out-of-band neighbour
// contributes the sentinel and loses the min.
//
// Subtree band: entry (ai, bj) lives at ai·(4bt+1) + (bj−ai) + 2bt; every
// read and write satisfies |ai−bj| ≤ 2bt (keyroot window plus cell band), so
// the rows pack without collision.
//
// Two row bodies. A tree row (x = 0: the row node sits on the outer
// keyroot's decomposition path) needs no sub-case gather at all — its source
// row is the constant boundary fd(0, y) = y, so the candidate is y plus the
// subtree entry, computed in registers; its y = 0 cells (forest positions on
// the inner keyroot's path — where blml equals the inner decomposition leaf)
// take the tree-tree candidate (diagonal + relabel cost) folded straight
// into the min, and store the subtree entry. A sub-forest row (x > 0) keeps
// the gathered sub-case read and can skip the y test — the tree-tree
// candidate never applies there.
func bandedViewDP(al, alml, bl, blml []int32, i, j int32, bt int, over int16, td, fd []int16) bool {
	stride := 2*bt + 2
	li, lj := alml[i], blml[j]
	m, n := int(i-li)+1, int(j-lj)+1
	ljI, overI := int(lj), int(over)
	for di := 1; di <= m; di++ {
		// Row di covers the in-band columns [lo, hi] of the grid.
		lo, hi := max(1, di-bt), min(n, di+bt)
		if hi < lo {
			// The whole row is right of the band: the frontier is sentinel.
			return false
		}
		rowMin := overI
		if di <= bt {
			// Cell (di, 0) is the boundary value di, in band: it belongs to
			// the row frontier.
			rowMin = di
		}
		cnt := hi - lo + 1
		ai := li + int32(di) - 1
		aLml := alml[ai]
		// rw spans the previous and the current row block: the diagonal
		// neighbour of cell k is rw[k], the deletion neighbour rw[k+1], the
		// cell itself rw[stride+k]; the insertion neighbour rides along in
		// `left`, seeded from cell (di, lo−1) — the boundary cell or a pad.
		rwBase := di*(stride-1) + lo - bt - 1
		rw := fd[rwBase : rwBase+stride+cnt]
		bOff := ljI + lo - 1
		browLml := blml[bOff : bOff+cnt]
		tdBase := int(ai)*4*bt + 2*bt + bOff
		tdRow := td[tdBase : tdBase+cnt] // all row cells satisfy |ai−bj| ≤ 2bt
		left := int(rw[stride-1])
		if aLml == li {
			// Tree row: the sub-case source is the constant boundary row
			// fd(0, y) = y, and the tree-tree candidate applies exactly at
			// y = 0 cells, whose value is stored as the subtree entry.
			aLabel := al[ai]
			for k := 0; k < cnt; k++ {
				v := left
				if d := int(rw[k+1]); d < v {
					v = d
				}
				v++
				if y := int(browLml[k]) - ljI; y == 0 {
					tv := int(rw[k])
					if bl[bOff+k] != aLabel {
						tv++
					}
					if tv < v {
						v = tv
					}
					if v > overI {
						v = overI
					}
					tdRow[k] = int16(v)
				} else {
					if y <= bt {
						if sv := y + int(tdRow[k]); sv < v {
							v = sv
						}
					}
					if v > overI {
						v = overI
					}
				}
				if v < rowMin {
					rowMin = v
				}
				rw[stride+k] = int16(v)
				left = v
			}
		} else {
			// Sub-forest row: gathered sub-case read from the fixed source
			// row x = aLml−li. Cell (x, y) sits at offset y−x+bt+1 of block
			// x, in band iff that offset lies in [1, 2bt+1]; an out-of-band
			// cell reads the block's pad (offset 0) instead — the sentinel,
			// which loses.
			x := int(aLml - li)
			xrow := fd[x*stride : x*stride+stride]
			c := int(li-lj) + bt + 1 - int(aLml)
			for k := 0; k < cnt; k++ {
				v := left
				if d := int(rw[k+1]); d < v {
					v = d
				}
				v++
				idx := int(browLml[k]) + c
				if uint(idx-1) > uint(2*bt) {
					idx = 0
				}
				if sv := int(xrow[idx]) + int(tdRow[k]); sv < v {
					v = sv
				}
				if v > overI {
					v = overI
				}
				if v < rowMin {
					rowMin = v
				}
				rw[stride+k] = int16(v)
				left = v
			}
		}
		if rowMin >= overI {
			return false
		}
	}
	return true
}

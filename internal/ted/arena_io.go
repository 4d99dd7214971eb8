// Arena view (de)serialisation. A TreeView is a pure function of its tree —
// every array is recomputed deterministically by BuildViews — so a persistent
// corpus can store the flattened cells once and reload them instead of
// re-running the whole view construction (postorder passes, keyroot fills,
// label sorts) on every open. This file defines the canonical cell layout
// and the validated reassembly path a segment reader uses. The layout carries
// two arrays a TreeView does not keep — node depth and subtree size, written
// by the first format and read by nothing in memory: they are computed while
// encoding and validated, then dropped, while decoding, so the bytes on disk
// are what they always were.
//
// Validation philosophy: ViewFromCells re-checks, in O(n), every structural
// invariant the banded kernel's index arithmetic leans on — lml values
// bounded by their own index, keyroot sets ascending and rooted, parent
// chains strictly increasing in postorder (so chain walks terminate), depths
// parent-consistent, subtree sizes definitional. It does not prove the cells
// equal BuildViews' output (that would cost the rebuild the serialisation
// exists to skip); callers that need end-to-end integrity pair these checks
// with a content hash over the cells, as internal/segstore does.
package ted

import (
	"errors"
	"fmt"

	"treejoin/internal/tree"
)

// ErrBadView reports arena cells that fail structural validation; errors.Is
// against it matches every rejection produced by ViewFromCells.
var ErrBadView = errors.New("ted: invalid arena cells")

func badViewf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadView, fmt.Sprintf(format, args...))
}

// Leaves returns the leaf count of t — the keyroot count of either
// decomposition, and the L of the 9n+4L arena cell layout.
func Leaves(t *tree.Tree) int { return leafCount(t) }

// ViewCellCount returns the arena cell count of a tree with n nodes and
// leaves leaves: nine n-sized arrays plus four keyroot arrays.
func ViewCellCount(n, leaves int) int { return 9*n + 4*leaves }

// AppendViewCells appends v's arena cells to dst in the canonical layout:
// Labels, Lml, RLabels, Rml, Keyroots, KrByLml, RKeyroots, RKrByLml, Depth
// (root = 0), Parent, RParent, SubtreeSize (i − Lml[i] + 1), SortedLabels.
// ViewFromCells inverts it.
func AppendViewCells(dst []int32, v *TreeView) []int32 {
	for _, s := range [][]int32{
		v.Labels, v.Lml, v.RLabels, v.Rml,
		v.Keyroots, v.KrByLml, v.RKeyroots, v.RKrByLml,
	} {
		dst = append(dst, s...)
	}
	n := len(v.Parent)
	dst = append(dst, make([]int32, n)...)
	depth := dst[len(dst)-n:]
	for i := n - 2; i >= 0; i-- { // parents follow children in postorder
		depth[i] = depth[v.Parent[i]] + 1
	}
	dst = append(append(dst, v.Parent...), v.RParent...)
	for i, l := range v.Lml {
		dst = append(dst, int32(i)-l+1)
	}
	return append(dst, v.SortedLabels...)
}

// ViewFromCells reassembles the arena view of t from cells laid out by
// AppendViewCells; the view gets a block of its own, without the two arrays
// it does not keep, and cells is not retained. The cells are validated
// against the structural invariants the verification kernel relies on;
// corrupt input returns an error wrapping ErrBadView, never a panic in later
// kernel use.
func ViewFromCells(t *tree.Tree, cells []int32, costL, costR int64) (*TreeView, error) {
	n := t.Size()
	leaves := leafCount(t)
	if len(cells) != ViewCellCount(n, leaves) {
		return nil, badViewf("cell count %d, want %d for %d nodes / %d leaves",
			len(cells), ViewCellCount(n, leaves), n, leaves)
	}
	if costL < 0 || costR < 0 {
		return nil, badViewf("negative strategy cost %d/%d", costL, costR)
	}
	head := 4*n + 4*leaves // the cells before Depth
	depth, subtreeSize := cells[head:head+n], cells[head+3*n:head+4*n]
	block := make([]int32, 0, 7*n+4*leaves)
	block = append(append(append(block, cells[:head]...), cells[head+n:head+3*n]...), cells[head+4*n:]...)
	off := 0
	take := func(k int) []int32 {
		s := block[off : off+k : off+k]
		off += k
		return s
	}
	v := &TreeView{T: t, CostL: costL, CostR: costR}
	v.Labels, v.Lml = take(n), take(n)
	v.RLabels, v.Rml = take(n), take(n)
	v.Keyroots, v.KrByLml = take(leaves), take(leaves)
	v.RKeyroots, v.RKrByLml = take(leaves), take(leaves)
	v.Parent, v.RParent = take(n), take(n)
	v.SortedLabels = take(n)

	limit := int32(t.Labels.Len())
	if err := checkDecomposition("left", v.Labels, v.Lml, v.Keyroots, v.KrByLml, v.Parent, limit); err != nil {
		return nil, err
	}
	if err := checkDecomposition("right", v.RLabels, v.Rml, v.RKeyroots, v.RKrByLml, v.RParent, limit); err != nil {
		return nil, err
	}
	// Depth is parent-consistent over the left postorder: the root (the last
	// postorder node, the one with parent −1) sits at depth 0, every other
	// node one below its parent. Parents follow children in postorder, so one
	// back-to-front pass sees every parent's depth before its children's.
	for i := n - 1; i >= 0; i-- {
		if p := v.Parent[i]; p == -1 {
			if depth[i] != 0 {
				return nil, badViewf("root depth %d", depth[i])
			}
		} else if depth[i] != depth[p]+1 {
			return nil, badViewf("depth[%d] = %d, parent depth %d", i, depth[i], depth[p])
		}
		if subtreeSize[i] != int32(i)-v.Lml[i]+1 {
			return nil, badViewf("subtree size[%d] = %d, want %d", i, subtreeSize[i], int32(i)-v.Lml[i]+1)
		}
	}
	for i := 1; i < n; i++ {
		if v.SortedLabels[i-1] > v.SortedLabels[i] {
			return nil, badViewf("sorted labels out of order at %d", i)
		}
	}
	if n > 0 && (v.SortedLabels[0] < 0 || v.SortedLabels[n-1] >= limit) {
		return nil, badViewf("sorted label out of range")
	}
	return v, nil
}

// checkDecomposition validates one decomposition's arrays: labels in range,
// lml values within [0, i] (a leftmost leaf never follows its subtree root in
// postorder), keyroots strictly ascending with the root (index n−1) last,
// krByLml the same length with strictly ascending lml values (keyroots own
// distinct decomposition leaves), and parents strictly increasing (−1 only at
// the root), which bounds every parent-chain walk the kernel performs.
func checkDecomposition(side string, labels, lml, kr, krByLml, parent []int32, limit int32) error {
	n := int32(len(labels))
	for i, l := range labels {
		if l < 0 || l >= limit {
			return badViewf("%s label[%d] = %d out of range [0,%d)", side, i, l, limit)
		}
		if lml[i] < 0 || lml[i] > int32(i) {
			return badViewf("%s lml[%d] = %d out of range [0,%d]", side, i, lml[i], i)
		}
		if p := parent[i]; int32(i) == n-1 {
			if p != -1 {
				return badViewf("%s root parent %d", side, p)
			}
		} else if p <= int32(i) || p >= n {
			return badViewf("%s parent[%d] = %d out of range (%d,%d)", side, i, p, i, n)
		}
	}
	if len(kr) == 0 || kr[len(kr)-1] != n-1 {
		return badViewf("%s keyroots do not end at the root", side)
	}
	for j, k := range kr {
		if k < 0 || k >= n {
			return badViewf("%s keyroot[%d] = %d out of range", side, j, k)
		}
		if j > 0 && kr[j-1] >= k {
			return badViewf("%s keyroots not ascending at %d", side, j)
		}
	}
	for j, k := range krByLml {
		if k < 0 || k >= n {
			return badViewf("%s krByLml[%d] = %d out of range", side, j, k)
		}
		if j > 0 && lml[krByLml[j-1]] >= lml[k] {
			return badViewf("%s krByLml not ascending by lml at %d", side, j)
		}
	}
	return nil
}

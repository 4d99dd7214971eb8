// Struct-of-arrays tree arenas. At paper scale the verifier's DP is
// memory-bound, so this file flattens every tree of a collection into
// postorder-indexed parallel slices carved out of one contiguous int32 block:
//
//   - labels and leftmost-leaf indices of the left-path decomposition,
//   - the same two arrays of the mirrored (right-path) decomposition, equal
//     to prepare's over t with every node's children reversed, without
//     materialising that mirror, and built
//     eagerly — the strategy-driven kernel flips between the two array sets
//     per pair,
//   - keyroots of both decompositions,
//   - the sorted label multiset behind the label lower bound,
//   - the left/right strategy costs the per-pair decomposition choice reads.
//
// BuildViews lays a whole collection out back-to-back, so a join's verify
// stage streams through one arena instead of chasing per-tree pointers; the
// engine caches the views per tree under "ted/arena", which keeps them warm
// across joins and lets the dynamic corpus evict exactly the removed trees.
package ted

import (
	"slices"

	"treejoin/internal/radix"
	"treejoin/internal/tree"
)

// TreeView is the arena image of one tree: every per-tree array the
// strategy-driven banded verifier reads, postorder-indexed, all backed by
// one contiguous block shared with the other trees of its build batch. A
// TreeView is immutable after construction and safe to share across
// goroutines.
type TreeView struct {
	// T is the tree this view flattens, kept for the shared-label-table
	// check; the kernel itself never touches it.
	T *tree.Tree

	// Left-path (standard postorder) decomposition arrays, exactly the
	// arrays prepare(T) computes.
	Labels []int32 // label of the node at postorder index i
	Lml    []int32 // postorder index of the leftmost leaf of the subtree at i

	// Right-path decomposition arrays over the mirrored postorder, exactly
	// the arrays prepare computes over T with every node's children
	// reversed.
	RLabels []int32
	Rml     []int32

	// Keyroots of each decomposition, ascending by postorder index. (The
	// frozen serialised form holds more arrays, all derived from these and
	// the lml arrays; see arena_io.go.)
	Keyroots  []int32
	RKeyroots []int32

	// SortedLabels is the label multiset sorted ascending, for the merge-based
	// label lower bound.
	SortedLabels []int32

	// CostL and CostR are the RTED-style strategy costs of the left- and
	// right-path decompositions: the number of DP cells Zhang–Shasha touches
	// for this tree, the sum of subtree sizes over the decomposition's
	// keyroots. The per-pair decomposition choice multiplies them (the
	// product bounds the pair's total work).
	CostL, CostR int64
}

// Size returns the tree's node count.
func (v *TreeView) Size() int { return len(v.Labels) }

// BuildViews flattens a collection into arena views backed by one contiguous
// int32 block: per tree, 5·n array cells plus 2·leaves keyroot cells, laid
// out back-to-back in collection order, with one working memory for the whole
// batch. Construction allocates (it is a build-time, per-collection cost the
// engine caches); verification over the views does not.
func BuildViews(ts []*tree.Tree) []*TreeView {
	total := 0
	leaves := make([]int, len(ts))
	for i, t := range ts {
		leaves[i] = leafCount(t)
		total += 5*t.Size() + 2*leaves[i]
	}
	block := make([]int32, total)
	views := make([]*TreeView, len(ts))
	var s viewScratch
	off := 0
	for i, t := range ts {
		views[i], off = s.buildView(t, leaves[i], block, off)
	}
	return views
}

// leafCount returns the number of leaves of t — also the keyroot count of
// either decomposition (each leaf is the decomposition leaf of itself, and
// every keyroot owns a distinct one).
func leafCount(t *tree.Tree) int {
	n := 0
	for i := range t.Nodes {
		if t.Nodes[i].FirstChild == tree.None {
			n++
		}
	}
	return n
}

// viewScratch is buildView's working memory, grown to the largest tree of a
// batch: the child links of both traversal directions by node, the pre- and
// postorder, one decomposition's ranks, and the label sort's scatter buffer.
type viewScratch struct {
	first, next, last, prev []int32
	pre, post, rank, tmp    []int32
}

// buildView fills the view of t, a tree with so many leaves, from
// block[off:], returning the new offset.
func (s *viewScratch) buildView(t *tree.Tree, leaves int, block []int32, off int) (*TreeView, int) {
	n := t.Size()
	take := func(k int) []int32 {
		s := block[off : off+k : off+k]
		off += k
		return s
	}
	v := &TreeView{T: t}
	v.Labels, v.Lml = take(n), take(n)
	v.RLabels, v.Rml = take(n), take(n)
	v.Keyroots, v.RKeyroots = take(leaves), take(leaves)
	v.SortedLabels = take(n)

	if cap(s.first) < n {
		cells := make([]int32, 8*n)
		for i, p := range []*[]int32{&s.first, &s.next, &s.last, &s.prev, &s.pre, &s.post, &s.rank, &s.tmp} {
			*p = cells[i*n : (i+1)*n : (i+1)*n]
		}
	}
	first, next, last, prev := s.first[:n], s.next[:n], s.last[:n], s.prev[:n]
	prev[t.Root()] = tree.None
	for id := range t.Nodes {
		first[id], next[id] = t.Nodes[id].FirstChild, t.Nodes[id].NextSibling
		var p int32 = tree.None
		for c := first[id]; c != tree.None; c = t.Nodes[c].NextSibling {
			prev[c] = p
			p = c
		}
		last[id] = p
	}
	// One walk along the links gives the preorder and the postorder.
	pre, post := s.pre[:0], s.post[:0]
	u := t.Root()
walk:
	for {
		pre = append(pre, u)
		if first[u] != tree.None {
			u = first[u]
			continue
		}
		// A leaf: close it and each ancestor whose last child it ends.
		for next[u] == tree.None {
			post = append(post, u)
			if u = t.Nodes[u].Parent; u == tree.None {
				break walk
			}
		}
		post = append(post, u)
		u = next[u]
	}
	// Left decomposition: standard postorder. Right decomposition: the same
	// construction over the mirrored postorder, which is the preorder
	// reversed — children right to left through the inverted sibling links,
	// decomposition leaf = rightmost leaf. The strategy costs are n plus the
	// subtree sizes of the nodes with a sibling before them (left paths) or
	// after them (right paths).
	slices.Reverse(pre)
	before, after := s.decompose(t, post, first, next, v.Labels, v.Lml, v.Keyroots)
	v.CostL, v.CostR = int64(n)+before, int64(n)+after
	s.decompose(t, pre, last, prev, v.RLabels, v.Rml, v.RKeyroots)

	copy(v.SortedLabels, v.Labels)
	radix.Sort(v.SortedLabels, s.tmp)
	return v, off
}

// decompose fills one decomposition's arrays over order, the postorder that
// visits each node's children from first[node] along next: labels and
// decomposition leaves (a node's is its first child's, which precedes it) by
// postorder index, and the keyroots in ascending postorder — the root and
// every node that is not its parent's first child (no later postorder node
// shares its decomposition leaf). It returns the summed subtree sizes of the
// nodes that are not their parent's first child, and of those that have a
// next sibling.
func (s *viewScratch) decompose(t *tree.Tree, order, first, next, labels, lml, kr []int32) (notFirst, hasNext int64) {
	rank := s.rank[:len(order)]
	k := 0
	for i, u := range order {
		rank[u] = int32(i)
		labels[i] = t.Nodes[u].Label
		if c := first[u]; c == tree.None {
			lml[i] = int32(i)
		} else {
			lml[i] = lml[rank[c]]
		}
		size := int64(int32(i) - lml[i] + 1)
		if p := t.Nodes[u].Parent; p == tree.None || first[p] != u {
			kr[k] = int32(i)
			k++
			if p != tree.None {
				notFirst += size
			}
		}
		if next[u] != tree.None {
			hasNext += size
		}
	}
	return notFirst, hasNext
}

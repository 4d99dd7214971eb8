package ted

import "treejoin/internal/tree"

// Reference code of the tests: the mirror a view's right-path arrays and
// Distance's right-path run are checked against, and the strategy cost the
// views' CostL and CostR must equal.

// Mirror returns the tree with every node's children reversed. TED is
// invariant under mirroring both inputs, which turns the left-path
// decomposition into a right-path one.
func Mirror(t *tree.Tree) *tree.Tree {
	b := tree.NewBuilder(t.Labels)
	var copyRev func(src, dst int32)
	copyRev = func(src, dst int32) {
		cs := t.Children(src)
		for i := len(cs) - 1; i >= 0; i-- {
			id := b.ChildID(dst, t.Nodes[cs[i]].Label)
			copyRev(cs[i], id)
		}
	}
	root := b.RootID(t.Nodes[t.Root()].Label)
	copyRev(t.Root(), root)
	return b.MustBuild()
}

// strategyCost estimates the number of DP cells Zhang–Shasha touches for one
// tree under the left- or right-path decomposition: the sum of subtree sizes
// over the decomposition's keyroots (the product of the two trees' sums
// bounds the total work, as in the RTED cost model).
func strategyCost(t *tree.Tree) (left, right int64) {
	sizes := tree.SubtreeSizes(t)
	left = int64(t.Size())
	right = int64(t.Size())
	for id := range t.Nodes {
		n := int32(id)
		// Has a left sibling ⇔ n is not its parent's first child.
		p := t.Nodes[n].Parent
		if p == tree.None {
			continue
		}
		if t.Nodes[p].FirstChild != n {
			left += int64(sizes[n])
		}
		if t.Nodes[n].NextSibling != tree.None {
			right += int64(sizes[n])
		}
	}
	return left, right
}

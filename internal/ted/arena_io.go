package ted

import "slices"

// AppendViewCells appends v's arena cells to dst in the layout version 1
// segment files stored and hashed into their block addresses: Labels, Lml,
// RLabels, Rml, Keyroots, KrByLml, RKeyroots, RKrByLml, Depth (root = 0),
// Parent, RParent, SubtreeSize (i − Lml[i] + 1), SortedLabels — 9n + 4·leaves
// cells. A TreeView holds Labels, Lml, RLabels, Rml, both keyroot sets and
// SortedLabels; the keyroots by leftmost leaf, the parents of both
// postorders, depth and subtree size are derived here from them. Nothing
// decodes this layout any more (a view is a pure function of its tree, and
// rebuilding one is cheaper than reading it back); its one caller is
// segstore's Scrub, which re-derives those stored addresses, so the layout is
// frozen.
func AppendViewCells(dst []int32, v *TreeView) []int32 {
	for _, s := range [][]int32{
		v.Labels, v.Lml, v.RLabels, v.Rml,
		v.Keyroots, byLml(v.Keyroots, v.Lml), v.RKeyroots, byLml(v.RKeyroots, v.Rml),
	} {
		dst = append(dst, s...)
	}
	parent, rparent := parents(v.Lml), parents(v.Rml)
	n := len(parent)
	dst = append(dst, make([]int32, n)...)
	depth := dst[len(dst)-n:]
	for i := n - 2; i >= 0; i-- { // parents follow children in postorder
		depth[i] = depth[parent[i]] + 1
	}
	dst = append(append(dst, parent...), rparent...)
	for i, l := range v.Lml {
		dst = append(dst, int32(i)-l+1)
	}
	return append(dst, v.SortedLabels...)
}

// byLml returns the keyroots kr reordered by ascending leftmost leaf
// (keyroots own distinct leaves, so the order is strict).
func byLml(kr, lml []int32) []int32 {
	out := slices.Clone(kr)
	slices.SortFunc(out, func(a, b int32) int { return int(lml[a] - lml[b]) })
	return out
}

// parents returns the postorder index of each node's parent (−1 for the
// root) of the tree whose postorder leftmost-leaf array is lml: the children
// of p are p−1, the node just left of that child's subtree, and so on down to
// p's own leftmost leaf.
func parents(lml []int32) []int32 {
	parent := make([]int32, len(lml))
	parent[len(lml)-1] = -1
	for p := int32(len(lml)) - 1; p >= 0; p-- {
		for c := p - 1; c >= lml[p]; c = lml[c] - 1 {
			parent[c] = p
		}
	}
	return parent
}

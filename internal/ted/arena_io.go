package ted

// AppendViewCells appends v's arena cells to dst in the layout version 1
// segment files stored and hashed into their block addresses: Labels, Lml,
// RLabels, Rml, Keyroots, KrByLml, RKeyroots, RKrByLml, Depth (root = 0),
// Parent, RParent, SubtreeSize (i − Lml[i] + 1), SortedLabels — 9n + 4·leaves
// cells. Depth and subtree size are not kept by a TreeView and are computed
// here. Nothing decodes this layout any more (a view is a pure function of its
// tree, and rebuilding one is cheaper than reading it back); its one caller is
// segstore's Scrub, which re-derives those stored addresses, so the layout is
// frozen.
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

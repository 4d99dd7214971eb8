package ted

import (
	"slices"

	"treejoin/internal/tree"
)

// Distance returns TED(t1, t2). It follows RTED's idea at whole-tree
// granularity: estimate the cost of the left-path and right-path
// decompositions from the tree shapes (the arena views' CostL and CostR) and
// run the unbounded Zhang–Shasha DP over the cheaper one's arrays
// (chooseDecomp, the verifier's rule). The returned distance is exact either
// way. Both trees must share one LabelTable (label equality is id equality).
func Distance(t1, t2 *tree.Tree) int {
	if t1.Labels != t2.Labels {
		panic("ted: trees must share a label table")
	}
	vs := BuildViews([]*tree.Tree{t1, t2})
	dec := chooseDecomp(vs[0].CostL, vs[0].CostR, vs[1].CostL, vs[1].CostR)
	return zs(vs[0].zsArrays(dec), vs[1].zsArrays(dec))
}

// SizeLowerBound returns |size(t1) − size(t2)|, a TED lower bound: every edit
// operation changes the size of a tree by at most one.
func SizeLowerBound(t1, t2 *tree.Tree) int {
	d := t1.Size() - t2.Size()
	if d < 0 {
		d = -d
	}
	return d
}

// LabelLowerBound returns max(|t1|, |t2|) minus the size of the label-bag
// intersection, a TED lower bound: an edit operation fixes at most one label
// mismatch. The trees must share a label table.
func LabelLowerBound(t1, t2 *tree.Tree) int {
	if t1.Labels != t2.Labels {
		panic("ted: LabelLowerBound requires a shared label table")
	}
	counts := make(map[int32]int, len(t1.Nodes))
	for i := range t1.Nodes {
		counts[t1.Nodes[i].Label]++
	}
	common := 0
	for i := range t2.Nodes {
		if counts[t2.Nodes[i].Label] > 0 {
			counts[t2.Nodes[i].Label]--
			common++
		}
	}
	m := t1.Size()
	if t2.Size() > m {
		m = t2.Size()
	}
	return m - common
}

// DistanceBounded reports whether TED(t1, t2) ≤ tau, returning the exact
// distance when it is and tau+1 otherwise: the one-off form of the verifier
// in banded.go. The size bound and the label bound (over label multisets
// sorted on the pooled scratch) run before anything is built; a surviving
// pair pays for both arena views and the string screen, and for a DP only
// when the certificate cannot settle it. Callers that verify a tree more
// than once (every join, search and stream in this module) hold its view
// and call DistanceBoundedView instead.
func DistanceBounded(t1, t2 *tree.Tree, tau int) (int, bool) {
	if t1.Labels != t2.Labels {
		panic("ted: trees must share a label table")
	}
	if tau < 0 || SizeLowerBound(t1, t2) > tau {
		return tau + 1, false
	}
	s := AcquireScratch()
	defer ReleaseScratch(s)
	s.labA, s.labB = sortedLabels(s.labA, t1), sortedLabels(s.labB, t2)
	if labelBoundExceeds(s.labA, s.labB, tau) {
		return tau + 1, false
	}
	vs := BuildViews([]*tree.Tree{t1, t2})
	return DistanceBoundedView(vs[0], vs[1], tau, s, nil)
}

// sortedLabels writes t's label multiset into buf, ascending.
func sortedLabels(buf []int32, t *tree.Tree) []int32 {
	buf = buf[:0]
	for i := range t.Nodes {
		buf = append(buf, t.Nodes[i].Label)
	}
	slices.Sort(buf)
	return buf
}

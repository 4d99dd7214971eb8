package baseline

import (
	"sort"

	"treejoin/internal/lcrs"
	"treejoin/internal/tree"
)

// branch is one binary branch: a node of the LC-RS binary tree together with
// the labels of its two binary children (noChild for a missing child — the
// paper's ε dummy).
type branch struct{ node, left, right int32 }

const noChild int32 = -1

// branchLess orders branches lexicographically, for multiset intersection by
// merging.
func branchLess(a, b branch) bool {
	if a.node != b.node {
		return a.node < b.node
	}
	if a.left != b.left {
		return a.left < b.left
	}
	return a.right < b.right
}

// BranchVector returns the sorted multiset of binary branches of t. Its
// length equals the tree size: one branch per node.
func BranchVector(t *tree.Tree) []branch {
	b := lcrs.Build(t)
	out := make([]branch, 0, t.Size())
	for id := range t.Nodes {
		n := int32(id)
		br := branch{node: b.Label(n), left: noChild, right: noChild}
		if l := b.Left(n); l != lcrs.None {
			br.left = b.Label(l)
		}
		if r := b.Right(n); r != lcrs.None {
			br.right = b.Label(r)
		}
		out = append(out, br)
	}
	sort.Slice(out, func(i, j int) bool { return branchLess(out[i], out[j]) })
	return out
}

// BIB returns the binary branch distance |X1| + |X2| − 2|X1 ∩ X2| between two
// sorted branch multisets. Yang et al. prove BIB(T1,T2) ≤ 5·TED(T1,T2).
func BIB(x1, x2 []branch) int {
	common := 0
	i, j := 0, 0
	for i < len(x1) && j < len(x2) {
		switch {
		case x1[i] == x2[j]:
			common++
			i++
			j++
		case branchLess(x1[i], x2[j]):
			i++
		default:
			j++
		}
	}
	return len(x1) + len(x2) - 2*common
}

// Package subtree implements similarity search *inside* one large tree: find
// the subtrees of a data tree within TED τ of a query tree (the problem of
// Cohen [7, 8] and of TASM [3] in the paper's related work — the paper
// distinguishes its collection-join setting from this one, so a library
// covering both rounds out the toolset).
//
// The search considers every node of the data tree as a candidate subtree
// root, prunes candidates with the size bound (a subtree whose node count
// differs from the query's by more than τ cannot match) and the τ-banded
// preorder/postorder string lower bounds, and verifies survivors with the
// bounded TED. Traversal sequences of every subtree are materialised in one
// pass over the data tree — the preorder (postorder) sequence of a subtree
// is a contiguous slice of the whole tree's preorder (postorder) sequence,
// so the screen costs no extra memory beyond the two whole-tree sequences.
package subtree

import (
	"treejoin/internal/strdist"
	"treejoin/internal/ted"
	"treejoin/internal/tree"
)

// Match is one hit: the data-tree node rooting the matching subtree and the
// exact TED between that subtree and the query.
type Match struct {
	Root int32
	Dist int
}

// Search returns every subtree of data within TED tau of query, in ascending
// root node id order. data and query must share one label table.
func Search(data, query *tree.Tree, tau int) []Match {
	if data.Labels != query.Labels {
		panic("subtree: trees must share a label table")
	}
	if tau < 0 {
		return nil
	}
	qSize := query.Size()
	qPre := tree.LabelSeq(query, tree.Preorder(query))
	qPost := tree.LabelSeq(query, tree.Postorder(query))
	qView := ted.BuildViews([]*tree.Tree{query})[0]

	// Whole-tree sequences; each subtree owns a contiguous slice of both.
	pre := tree.Preorder(data)
	post := tree.Postorder(data)
	preSeq := tree.LabelSeq(data, pre)
	postSeq := tree.LabelSeq(data, post)
	preRank := make([]int32, data.Size())
	for i, n := range pre {
		preRank[n] = int32(i)
	}
	postRank := make([]int32, data.Size())
	for i, n := range post {
		postRank[n] = int32(i)
	}
	sizes := tree.SubtreeSizes(data)

	// Screen every node first, then flatten the survivors in one batch.
	var roots []int32
	var subs []*tree.Tree
	for id := range data.Nodes {
		n := int32(id)
		sz := int(sizes[n])
		if sz < qSize-tau || sz > qSize+tau {
			continue
		}
		// Subtree n occupies preorder [preRank, preRank+sz) and postorder
		// [postRank−sz+1, postRank+1].
		p := preSeq[preRank[n] : int(preRank[n])+sz]
		if strdist.Bounded(p, qPre, tau) > tau {
			continue
		}
		q := postSeq[int(postRank[n])-sz+1 : postRank[n]+1]
		if strdist.Bounded(q, qPost, tau) > tau {
			continue
		}
		roots, subs = append(roots, n), append(subs, tree.SubtreeAt(data, n))
	}
	scratch := ted.AcquireScratch()
	defer ted.ReleaseScratch(scratch)
	var out []Match
	for k, sub := range ted.BuildViews(subs) {
		if d, ok := ted.DistanceBoundedView(sub, qView, tau, scratch, nil); ok {
			out = append(out, Match{Root: roots[k], Dist: d})
		}
	}
	return out // ascending Root: the loop's order
}

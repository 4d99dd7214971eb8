package treejoin

import (
	"treejoin/internal/core"
	"treejoin/internal/subtree"
	"treejoin/internal/tree"
)

// Match is one similarity-search hit: the collection position of the
// matching tree and its exact distance to the query.
type Match = core.Match

// SubtreeMatch is one subtree-search hit: the data-tree node rooting the
// matching subtree and its exact TED to the query.
type SubtreeMatch = subtree.Match

// SubtreeSearch finds the subtrees of one large data tree within TED tau of
// query, in ascending root node order — similarity search *inside* a tree
// (the setting of the paper's related work on subtree similarity search),
// complementing the collection-level joins. data and query must share one
// LabelTable.
func SubtreeSearch(data, query *Tree, tau int) []SubtreeMatch {
	return subtree.Search(data, query, tau)
}

// SubtreeAt extracts the subtree of t rooted at node n as a standalone tree
// sharing t's label table.
func SubtreeAt(t *Tree, n int32) *Tree { return tree.SubtreeAt(t, n) }

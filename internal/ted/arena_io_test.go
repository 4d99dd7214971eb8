package ted

import (
	"math/rand"
	"slices"
	"testing"

	"treejoin/internal/tree"
)

// TestViewCellsLayout pins the frozen cell layout: 9n + 4·leaves cells, the
// view's own arrays at their offsets, and the lml-sorted keyroots and the
// parents of both postorders as recomputed from the tree, for random trees
// down to a single node. (The two other computed arrays, depth and subtree
// size, are checked against the tree in TestBuildViewsMatchesPrepare; the
// layout end to end, hash included, by segstore's version 1 golden segment.)
func TestViewCellsLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	lt := tree.NewLabelTable()
	b := tree.NewBuilder(lt)
	b.Root("a")
	trees := []*tree.Tree{b.MustBuild()}
	for i := 0; i < 60; i++ {
		trees = append(trees, randTree(rng, 40, 4, lt))
	}
	for i, v := range BuildViews(trees) {
		n, leaves := trees[i].Size(), leafCount(trees[i])
		left, right := prepare(trees[i]), prepare(Mirror(trees[i]))
		cells := AppendViewCells(nil, v)
		if len(cells) != 9*n+4*leaves {
			t.Fatalf("tree %d: %d cells, want 9·%d + 4·%d", i, len(cells), n, leaves)
		}
		off := 0
		for _, sec := range []struct {
			name string
			want []int32 // nil: computed by the encoder, n cells
		}{
			{"Labels", v.Labels}, {"Lml", v.Lml}, {"RLabels", v.RLabels}, {"Rml", v.Rml},
			{"Keyroots", v.Keyroots}, {"KrByLml", byLml(left.keyroots, left.lml)},
			{"RKeyroots", v.RKeyroots}, {"RKrByLml", byLml(right.keyroots, right.lml)},
			{"Depth", nil}, {"Parent", postorderParents(trees[i])}, {"RParent", postorderParents(Mirror(trees[i]))},
			{"SubtreeSize", nil},
			{"SortedLabels", v.SortedLabels},
		} {
			if sec.want == nil {
				off += n
				continue
			}
			if !slices.Equal(cells[off:off+len(sec.want)], sec.want) {
				t.Fatalf("tree %d: %s not at cell offset %d", i, sec.name, off)
			}
			off += len(sec.want)
		}
	}
}

// postorderParents returns the postorder rank of each node's parent, by the
// node's postorder rank (−1 for the root).
func postorderParents(t *tree.Tree) []int32 {
	post := tree.Postorder(t)
	rank := make(map[int32]int32, len(post))
	for i, u := range post {
		rank[u] = int32(i)
	}
	parents := make([]int32, len(post))
	for i, u := range post {
		parents[i] = -1
		if p := t.Nodes[u].Parent; p != tree.None {
			parents[i] = rank[p]
		}
	}
	return parents
}

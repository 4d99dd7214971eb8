package tree_test

import (
	"math/rand"
	"slices"
	"testing"

	"treejoin/internal/tree"
)

// Figure 4(a) of the paper: the 10-node general tree used to illustrate the
// Knuth transformation.
func figure4Tree(lt *tree.LabelTable) *tree.Tree {
	// l1 has children l2, l6, l7; l2 has children l3, l4, l5;
	// l7 has child l8; l8 has children l9, l10.
	return tree.MustParseBracket("{l1{l2{l3}{l4}{l5}}{l6}{l7{l8{l9}{l10}}}}", lt)
}

func labelsOf(t *tree.Tree, order []int32) []string {
	out := make([]string, len(order))
	for i, n := range order {
		out[i] = t.Label(n)
	}
	return out
}

func eqStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestPreorderPostorder(t *testing.T) {
	lt := tree.NewLabelTable()
	tr := figure4Tree(lt)
	pre := labelsOf(tr, tree.Preorder(tr))
	wantPre := []string{"l1", "l2", "l3", "l4", "l5", "l6", "l7", "l8", "l9", "l10"}
	if !eqStrings(pre, wantPre) {
		t.Errorf("preorder = %v", pre)
	}
	post := labelsOf(tr, tree.Postorder(tr))
	wantPost := []string{"l3", "l4", "l5", "l2", "l6", "l9", "l10", "l8", "l7", "l1"}
	if !eqStrings(post, wantPost) {
		t.Errorf("postorder = %v", post)
	}
}

func TestTraversalPermutations(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 100; i++ {
		tr := randomTree(rng, 60, 4, nil)
		for _, order := range [][]int32{tree.Preorder(tr), tree.Postorder(tr)} {
			if len(order) != tr.Size() {
				t.Fatalf("order length %d != size %d", len(order), tr.Size())
			}
			seen := make(map[int32]bool)
			for _, n := range order {
				if seen[n] {
					t.Fatalf("node %d visited twice", n)
				}
				seen[n] = true
			}
		}
	}
}

func TestPostorderParentAfterChildren(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 50; i++ {
		tr := randomTree(rng, 60, 4, nil)
		pos := make([]int, tr.Size())
		for i, n := range tree.Postorder(tr) {
			pos[n] = i
		}
		for id := range tr.Nodes {
			if p := tr.Nodes[id].Parent; p != tree.None && pos[id] >= pos[p] {
				t.Fatalf("postorder: child %d after parent %d", id, p)
			}
		}
	}
}

func TestPreorderParentBeforeChildren(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 50; i++ {
		tr := randomTree(rng, 60, 4, nil)
		pos := make([]int, tr.Size())
		for i, n := range tree.Preorder(tr) {
			pos[n] = i
		}
		for id := range tr.Nodes {
			if p := tr.Nodes[id].Parent; p != tree.None && pos[id] <= pos[p] {
				t.Fatalf("preorder: child %d before parent %d", id, p)
			}
		}
	}
}

func TestLabelSeq(t *testing.T) {
	lt := tree.NewLabelTable()
	tr := tree.MustParseBracket("{a{b}{a{c}}}", lt)
	seq := tree.LabelSeq(tr, tree.Preorder(tr))
	want := []string{"a", "b", "a", "c"}
	for i, id := range seq {
		if lt.Name(id) != want[i] {
			t.Fatalf("seq[%d] = %q, want %q", i, lt.Name(id), want[i])
		}
	}
}

// TestAppendEuler: the link walk's tour equals a recursive one (open symbol
// 2L, the children's tours, close symbol 2L+1) on random trees, as int32
// symbols and as uint64 words, appended after what dst already holds.
func TestAppendEuler(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	lt := tree.NewLabelTable()
	for iter := 0; iter < 200; iter++ {
		tr := randomTree(rng, 40, 5, lt)
		var want []int32
		var tour func(n int32)
		tour = func(n int32) {
			want = append(want, 2*tr.Nodes[n].Label)
			for c := tr.Nodes[n].FirstChild; c != tree.None; c = tr.Nodes[c].NextSibling {
				tour(c)
			}
			want = append(want, 2*tr.Nodes[n].Label+1)
		}
		tour(tr.Root())
		if got := tree.EulerString(tr); !slices.Equal(got, want) {
			t.Fatalf("iter %d: EulerString %v, want %v", iter, got, want)
		}
		words := tree.AppendEuler([]uint64{7}, tr)
		if len(words) != 1+len(want) || words[0] != 7 {
			t.Fatalf("iter %d: AppendEuler kept %d words of a %d-symbol tour", iter, len(words), len(want))
		}
		for i, w := range words[1:] {
			if w != uint64(want[i]) {
				t.Fatalf("iter %d: word %d is %d, want %d", iter, i, w, want[i])
			}
		}
	}
}

func TestDepthsAndSubtreeSizes(t *testing.T) {
	lt := tree.NewLabelTable()
	tr := figure4Tree(lt)
	d := tree.Depths(tr)
	if d[0] != 0 {
		t.Errorf("root depth = %d", d[0])
	}
	maxd := int32(0)
	for _, v := range d {
		if v > maxd {
			maxd = v
		}
	}
	if maxd != 3 { // l9/l10 sit at depth 3
		t.Errorf("max depth = %d, want 3", maxd)
	}
	sz := tree.SubtreeSizes(tr)
	if sz[0] != int32(tr.Size()) {
		t.Errorf("root subtree size = %d", sz[0])
	}
	// Sum of (subtree size − 1) over all nodes equals total edge-weighted
	// depth: Σ depth(v).
	var lhs, rhs int64
	for id := range tr.Nodes {
		lhs += int64(sz[id] - 1)
		rhs += int64(d[id])
	}
	if lhs != rhs {
		t.Errorf("Σ(size-1) = %d, Σdepth = %d", lhs, rhs)
	}
}

func TestSubtreeSizesRandomInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 50; i++ {
		tr := randomTree(rng, 80, 3, nil)
		sz := tree.SubtreeSizes(tr)
		d := tree.Depths(tr)
		var lhs, rhs int64
		for id := range tr.Nodes {
			lhs += int64(sz[id] - 1)
			rhs += int64(d[id])
			var kids int32 = 1
			for c := tr.Nodes[id].FirstChild; c != tree.None; c = tr.Nodes[c].NextSibling {
				kids += sz[c]
			}
			if kids != sz[id] {
				t.Fatalf("subtree size mismatch at node %d", id)
			}
		}
		if lhs != rhs {
			t.Fatalf("Σ(size-1)=%d != Σdepth=%d", lhs, rhs)
		}
	}
}

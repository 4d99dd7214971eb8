package subtree_test

import (
	"math/rand"
	"testing"

	"treejoin/internal/subtree"
	"treejoin/internal/ted"
	"treejoin/internal/tree"
)

func randTree(rng *rand.Rand, lt *tree.LabelTable, n, alphabet int) *tree.Tree {
	b := tree.NewBuilder(lt)
	b.Root(string(rune('a' + rng.Intn(alphabet))))
	for i := 1; i < n; i++ {
		b.Child(int32(rng.Intn(i)), string(rune('a'+rng.Intn(alphabet))))
	}
	return b.MustBuild()
}

// naive computes the oracle: the exact TED of every subtree against the
// query.
func naive(data, query *tree.Tree, tau int) []subtree.Match {
	var out []subtree.Match
	for id := range data.Nodes {
		n := int32(id)
		if d := ted.Distance(tree.SubtreeAt(data, n), query); d <= tau {
			out = append(out, subtree.Match{Root: n, Dist: d})
		}
	}
	return out
}

func TestSubtreeAt(t *testing.T) {
	lt := tree.NewLabelTable()
	d := tree.MustParseBracket("{a{b{c}{d}}{e{f}}}", lt)
	// Node ids are preorder from the bracket parser: a=0 b=1 c=2 d=3 e=4 f=5.
	sub := tree.SubtreeAt(d, 1)
	if got := tree.FormatBracket(sub); got != "{b{c}{d}}" {
		t.Fatalf("SubtreeAt = %s", got)
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
	whole := tree.SubtreeAt(d, 0)
	if !tree.Equal(whole, d) {
		t.Fatal("SubtreeAt(root) differs from the tree")
	}
	leaf := tree.SubtreeAt(d, 5)
	if leaf.Size() != 1 || leaf.Label(0) != "f" {
		t.Fatalf("leaf subtree %s", tree.FormatBracket(leaf))
	}
}

func TestSearchHandCase(t *testing.T) {
	lt := tree.NewLabelTable()
	data := tree.MustParseBracket("{doc{sec{p{x}}{p{y}}}{sec{p{x}}{q{y}}}}", lt)
	query := tree.MustParseBracket("{sec{p{x}}{p{y}}}", lt)
	got := subtree.Search(data, query, 1)
	// The first sec matches exactly; the second needs one rename (q -> p).
	if len(got) != 2 {
		t.Fatalf("got %v", got)
	}
	if got[0].Dist != 0 || got[1].Dist != 1 {
		t.Fatalf("distances %v", got)
	}
	if got := subtree.Search(data, query, 0); len(got) != 1 {
		t.Fatalf("τ=0: %v", got)
	}
}

// TestSearchMatchesOracle: the pruned search returns exactly the naive
// all-subtrees scan on random data, across thresholds.
func TestSearchMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	lt := tree.NewLabelTable()
	for trial := 0; trial < 40; trial++ {
		data := randTree(rng, lt, 30+rng.Intn(40), 4)
		query := randTree(rng, lt, 2+rng.Intn(10), 4)
		for _, tau := range []int{0, 1, 3} {
			want := naive(data, query, tau)
			got := subtree.Search(data, query, tau)
			if len(got) != len(want) {
				t.Fatalf("trial %d τ=%d: %d matches, want %d", trial, tau, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d τ=%d: match %d = %v, want %v", trial, tau, i, got[i], want[i])
				}
			}
		}
	}
}

// TestSearchSelfQuery: querying a data tree with one of its own subtrees
// always finds that subtree at distance 0.
func TestSearchSelfQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	lt := tree.NewLabelTable()
	for trial := 0; trial < 30; trial++ {
		data := randTree(rng, lt, 40, 3)
		n := int32(rng.Intn(data.Size()))
		query := tree.SubtreeAt(data, n)
		found := false
		for _, m := range subtree.Search(data, query, 0) {
			if m.Root == n && m.Dist == 0 {
				found = true
			}
		}
		if !found {
			t.Fatalf("own subtree at node %d not found", n)
		}
	}
}

func TestSearchEdgeCases(t *testing.T) {
	lt := tree.NewLabelTable()
	data := tree.MustParseBracket("{a}", lt)
	query := tree.MustParseBracket("{a}", lt)
	got := subtree.Search(data, query, 0)
	if len(got) != 1 || got[0].Root != 0 {
		t.Fatalf("single-node case: %v", got)
	}
	if got := subtree.Search(data, query, -1); got != nil {
		t.Fatalf("negative τ returned %v", got)
	}
	big := tree.MustParseBracket("{q{r{s{t{u{v}}}}}}", lt)
	if got := subtree.Search(data, big, 2); len(got) != 0 {
		t.Fatalf("oversized query matched: %v", got)
	}
}

package ted

import (
	"math/rand"
	"testing"

	"treejoin/internal/tree"
)

// TestDistanceEitherDecomposition: Distance equals ZhangShasha on left-deep
// pairs, where chooseDecomp picks the left paths, and on right-deep pairs,
// where it picks the right paths.
func TestDistanceEitherDecomposition(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	lt := tree.NewLabelTable()
	for _, want := range []Decomp{DecompLeft, DecompRight} {
		for i := 0; i < 30; i++ {
			a, b := deepTree(rng, lt, want), deepTree(rng, lt, want)
			vs := BuildViews([]*tree.Tree{a, b})
			if got := chooseDecomp(vs[0].CostL, vs[0].CostR, vs[1].CostL, vs[1].CostR); got != want {
				t.Fatalf("%s, %s: picked %v, want %v", tree.FormatBracket(a), tree.FormatBracket(b), got, want)
			}
			if d, z := Distance(a, b), ZhangShasha(a, b); d != z {
				t.Fatalf("%s, %s: Distance %d, ZhangShasha %d", tree.FormatBracket(a), tree.FormatBracket(b), d, z)
			}
		}
	}
}

// deepTree returns a random comb whose spine runs through each spine node's
// first child (DecompLeft) or last child (DecompRight), with one or two
// leaves on the other side of it.
func deepTree(rng *rand.Rand, lt *tree.LabelTable, spine Decomp) *tree.Tree {
	b := tree.NewBuilder(lt)
	lab := func() string { return string(rune('a' + rng.Intn(3))) }
	cur := b.Root(lab())
	for range 8 + rng.Intn(12) {
		leaves := 1 + rng.Intn(2)
		if spine == DecompRight {
			for range leaves {
				b.Child(cur, lab())
			}
		}
		next := b.Child(cur, lab())
		if spine == DecompLeft {
			for range leaves {
				b.Child(cur, lab())
			}
		}
		cur = next
	}
	return b.MustBuild()
}

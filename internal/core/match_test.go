package core

import (
	"math/rand"
	"testing"

	"treejoin/internal/lcrs"
	"treejoin/internal/tree"
)

// TestSelfMatch: every component of a partition occurs in its own tree at its
// own root.
func TestSelfMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	lt := tree.NewLabelTable()
	for i := 0; i < 200; i++ {
		g := randomSizedTree(rng, 1+rng.Intn(60), lt)
		b := lcrs.Build(g)
		for delta := 1; delta <= b.Size() && delta <= 9; delta += 2 {
			p := Compute(b, delta)
			for c := 0; c < delta; c++ {
				if !Matches(p, int32(c), b, p.Roots[c]) {
					t.Fatalf("component %d does not match itself in %s", c, tree.FormatBracket(g))
				}
			}
		}
	}
}

func TestMatchRequiresEmptySlots(t *testing.T) {
	lt := tree.NewLabelTable()
	// Pattern tree {a{b}} partitioned as one component: b has no children and
	// no right sibling, so it must match a childless, sibling-less b.
	pat := tree.MustParseBracket("{a{b}}", lt)
	p := Compute(lcrs.Build(pat), 1)
	yes := lcrs.Build(tree.MustParseBracket("{a{b}}", lt))
	if !Matches(p, 0, yes, yes.Tree.Root()) {
		t.Fatal("identical tree should match")
	}
	for _, s := range []string{
		"{a{b{c}}}", // b gained a child (left slot no longer empty)
		"{a{b}{c}}", // b gained a right sibling
		"{a{c}}",    // label mismatch
		"{c{b}}",    // root label mismatch
		"{a}",       // b missing
	} {
		probe := lcrs.Build(tree.MustParseBracket(s, lt))
		if Matches(p, 0, probe, probe.Tree.Root()) {
			t.Errorf("pattern {a{b}} should not match %s at root", s)
		}
	}
	// But it may match deeper inside a larger tree.
	deep := lcrs.Build(tree.MustParseBracket("{x{a{b}}}", lt))
	found := false
	for n := range deep.Tree.Nodes {
		if Matches(p, 0, deep, int32(n)) {
			found = true
		}
	}
	if !found {
		t.Error("pattern {a{b}} should match inside {x{a{b}}}")
	}
}

// TestLemma2FilterProperty is the heart of the correctness argument: for any
// tree T1, any δ-partitioning of T1 with δ = 2τ+1 (balanced or random), and
// any tree T2 obtained from T1 by at most τ node edit operations, at least
// one component of T1 occurs in T2.
func TestLemma2FilterProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	lt := tree.NewLabelTable()
	iters := 600
	if testing.Short() {
		iters = 150
	}
	for i := 0; i < iters; i++ {
		tau := 1 + rng.Intn(4)
		delta := 2*tau + 1
		// Ensure the base tree is large enough to δ-partition.
		size := delta + rng.Intn(50)
		t1 := randomSizedTree(rng, size, lt)
		b1 := lcrs.Build(t1)
		var p *Partition
		if rng.Intn(2) == 0 {
			p = Compute(b1, delta)
		} else {
			p = ComputeRandom(b1, delta, rng)
		}
		t2 := t1
		k := rng.Intn(tau + 1)
		for e := 0; e < k; e++ {
			t2 = randomEditOp(rng, t2, lt)
		}
		b2 := lcrs.Build(t2)
		ok := false
		for c := 0; c < delta; c++ {
			if MatchesAnywhere(p, int32(c), b2) {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("no component survived %d ≤ τ=%d edits:\nT1 = %s\nT2 = %s",
				k, tau, tree.FormatBracket(t1), tree.FormatBracket(t2))
		}
	}
}

func randomSizedTree(rng *rand.Rand, n int, lt *tree.LabelTable) *tree.Tree {
	b := tree.NewBuilder(lt)
	b.Root(string(rune('a' + rng.Intn(5))))
	for i := 1; i < n; i++ {
		b.Child(int32(rng.Intn(i)), string(rune('a'+rng.Intn(5))))
	}
	return b.MustBuild()
}

// randomEditOp applies one random node edit operation (the full model:
// rename, delete incl. single-child root, insert incl. wrapping the root).
func randomEditOp(rng *rand.Rand, t *tree.Tree, lt *tree.LabelTable) *tree.Tree {
	n := int32(rng.Intn(t.Size()))
	label := string(rune('a' + rng.Intn(5)))
	switch rng.Intn(4) {
	case 0:
		return tree.Rename(t, n, label)
	case 1:
		if t.Nodes[n].Parent == tree.None {
			return tree.WrapRoot(t, label)
		}
		out, err := tree.Delete(t, n)
		if err != nil {
			return tree.Rename(t, n, label)
		}
		return out
	case 2:
		nc := len(t.Children(n))
		at := rng.Intn(nc + 1)
		count := 0
		if nc-at > 0 {
			count = rng.Intn(nc - at + 1)
		}
		out, err := tree.Insert(t, n, at, count, label)
		if err != nil {
			return tree.Rename(t, n, label)
		}
		return out
	default:
		return tree.WrapRoot(t, label)
	}
}

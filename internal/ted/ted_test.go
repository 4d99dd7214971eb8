package ted_test

import (
	"math/rand"
	"testing"

	"treejoin/internal/ted"
	"treejoin/internal/tree"
)

// figure3Trees returns the paper's Figure 3 pair with TED(T1, T2) = 3.
func figure3Trees(lt *tree.LabelTable) (*tree.Tree, *tree.Tree) {
	t1 := tree.MustParseBracket("{l1{l2}{l1{l3}}}", lt)
	t2 := tree.MustParseBracket("{l1{l2{l1}{l3}}}", lt)
	return t1, t2
}

func TestFigure3Distance(t *testing.T) {
	lt := tree.NewLabelTable()
	t1, t2 := figure3Trees(lt)
	if d := ted.ZhangShasha(t1, t2); d != 3 {
		t.Errorf("ZhangShasha = %d, want 3", d)
	}
	if d := ted.Distance(t1, t2); d != 3 {
		t.Errorf("Distance = %d, want 3", d)
	}
	if d := exhaustiveTED(t1, t2); d != 3 {
		t.Errorf("oracle = %d, want 3", d)
	}
}

func TestHandDistances(t *testing.T) {
	lt := tree.NewLabelTable()
	cases := []struct {
		a, b string
		want int
	}{
		{"{a}", "{a}", 0},
		{"{a}", "{b}", 1},
		{"{a{b}}", "{a}", 1},
		{"{a{b}}", "{b}", 1}, // mapping-based TED may leave the root unmapped
		{"{a{b}{c}}", "{a{c}}", 1},
		{"{a{b}{c}}", "{a{c}{b}}", 2}, // swap requires two ops (order preserved)
		{"{a{b{c}}}", "{a{c{b}}}", 2},
		{"{f{d{a}{c{b}}}{e}}", "{f{c{d{a}{b}}}{e}}", 2}, // Zhang–Shasha's classic example
		{"{a}", "{b{a}}", 1},                            // insert above root
		{"{a{b}{c}{d}}", "{a{x{b}{c}{d}}}", 1},          // insert adopting all children
		{"{a{b}{c}{d}}", "{a{b}{x{c}}{d}}", 1},
	}
	for _, c := range cases {
		a := tree.MustParseBracket(c.a, lt)
		b := tree.MustParseBracket(c.b, lt)
		if d := ted.Distance(a, b); d != c.want {
			t.Errorf("Distance(%s, %s) = %d, want %d", c.a, c.b, d, c.want)
		}
	}
}

func TestAgainstExhaustiveOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	lt := tree.NewLabelTable()
	for i := 0; i < 400; i++ {
		a := tinyRandomTree(rng, 6, 3, lt)
		b := tinyRandomTree(rng, 6, 3, lt)
		want := exhaustiveTED(a, b)
		if got := ted.ZhangShasha(a, b); got != want {
			t.Fatalf("ZhangShasha(%s, %s) = %d, oracle %d",
				tree.FormatBracket(a), tree.FormatBracket(b), got, want)
		}
		if got := ted.Distance(a, b); got != want {
			t.Fatalf("Distance(%s, %s) = %d, oracle %d",
				tree.FormatBracket(a), tree.FormatBracket(b), got, want)
		}
	}
}

func TestLeftRightAgreeOnLargerTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	lt := tree.NewLabelTable()
	for i := 0; i < 60; i++ {
		a := tinyRandomTree(rng, 60, 4, lt)
		b := tinyRandomTree(rng, 60, 4, lt)
		dl := ted.ZhangShasha(a, b)
		dr := ted.ZhangShasha(ted.Mirror(a), ted.Mirror(b))
		dh := ted.Distance(a, b)
		if dl != dr || dl != dh {
			t.Fatalf("strategies disagree: left=%d right=%d hybrid=%d\n%s\n%s",
				dl, dr, dh, tree.FormatBracket(a), tree.FormatBracket(b))
		}
	}
}

func TestMetricProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	lt := tree.NewLabelTable()
	trees := make([]*tree.Tree, 12)
	for i := range trees {
		trees[i] = tinyRandomTree(rng, 20, 3, lt)
	}
	for _, a := range trees {
		if d := ted.Distance(a, a); d != 0 {
			t.Fatalf("Distance(a,a) = %d", d)
		}
		for _, b := range trees {
			dab := ted.Distance(a, b)
			dba := ted.Distance(b, a)
			if dab != dba {
				t.Fatalf("asymmetric: %d vs %d", dab, dba)
			}
			if dab == 0 && !tree.Equal(a, b) {
				t.Fatalf("zero distance for unequal trees")
			}
			for _, c := range trees {
				if ted.Distance(a, c) > dab+ted.Distance(b, c) {
					t.Fatalf("triangle inequality violated")
				}
			}
		}
	}
}

// TestEditScriptUpperBound: applying k random edit operations yields a tree
// within distance k (the core invariant the similarity join's property tests
// build on).
func TestEditScriptUpperBound(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	lt := tree.NewLabelTable()
	for i := 0; i < 150; i++ {
		a := tinyRandomTree(rng, 25, 4, lt)
		b := a
		k := rng.Intn(5)
		for e := 0; e < k; e++ {
			b = randomEditOp(rng, b, lt)
		}
		if d := ted.Distance(a, b); d > k {
			t.Fatalf("distance %d after %d edits:\n%s\n%s",
				d, k, tree.FormatBracket(a), tree.FormatBracket(b))
		}
	}
}

// randomEditOp applies one random rename/delete/insert/wrap to t.
func randomEditOp(rng *rand.Rand, t *tree.Tree, lt *tree.LabelTable) *tree.Tree {
	n := int32(rng.Intn(t.Size()))
	label := string(rune('a' + rng.Intn(4)))
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

func TestLowerBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	lt := tree.NewLabelTable()
	for i := 0; i < 200; i++ {
		a := tinyRandomTree(rng, 25, 3, lt)
		b := tinyRandomTree(rng, 25, 3, lt)
		d := ted.Distance(a, b)
		if lb := ted.SizeLowerBound(a, b); lb > d {
			t.Fatalf("size lower bound %d > TED %d", lb, d)
		}
		if lb := ted.LabelLowerBound(a, b); lb > d {
			t.Fatalf("label lower bound %d > TED %d\n%s\n%s",
				lb, d, tree.FormatBracket(a), tree.FormatBracket(b))
		}
	}
}

func TestDistanceBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(127))
	lt := tree.NewLabelTable()
	for i := 0; i < 200; i++ {
		a := tinyRandomTree(rng, 20, 3, lt)
		b := tinyRandomTree(rng, 20, 3, lt)
		d := ted.Distance(a, b)
		for tau := 0; tau <= 6; tau++ {
			got, ok := ted.DistanceBounded(a, b, tau)
			if ok != (d <= tau) {
				t.Fatalf("DistanceBounded(τ=%d): ok=%v, d=%d", tau, ok, d)
			}
			if ok && got != d {
				t.Fatalf("DistanceBounded(τ=%d) = %d, want %d", tau, got, d)
			}
			if !ok && got <= tau {
				t.Fatalf("DistanceBounded(τ=%d) reported %d with ok=false", tau, got)
			}
		}
	}
}

func TestDistanceChainsAndStars(t *testing.T) {
	lt := tree.NewLabelTable()
	chain := func(n int) *tree.Tree {
		b := tree.NewBuilder(lt)
		cur := b.Root("c")
		for i := 1; i < n; i++ {
			cur = b.Child(cur, "c")
		}
		return b.MustBuild()
	}
	star := func(n int) *tree.Tree {
		b := tree.NewBuilder(lt)
		r := b.Root("c")
		for i := 1; i < n; i++ {
			b.Child(r, "c")
		}
		return b.MustBuild()
	}
	if d := ted.Distance(chain(10), chain(7)); d != 3 {
		t.Errorf("chain10 vs chain7 = %d, want 3", d)
	}
	if d := ted.Distance(star(10), star(7)); d != 3 {
		t.Errorf("star10 vs star7 = %d, want 3", d)
	}
	// A chain and a star of equal size and labels: transform by deleting
	// inner chain nodes and re-inserting as leaves — 2·(n−2) is an upper
	// bound; check the oracle on a small instance.
	want := exhaustiveTED(chain(5), star(5))
	if d := ted.Distance(chain(5), star(5)); d != want {
		t.Errorf("chain5 vs star5 = %d, oracle %d", d, want)
	}
}

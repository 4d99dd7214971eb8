package pqgram_test

import (
	"math/rand"
	"testing"

	"treejoin/internal/engine"
	"treejoin/internal/pqgram"
	"treejoin/internal/synth"
	"treejoin/internal/tree"
)

func randomTree(rng *rand.Rand, maxN int, lt *tree.LabelTable) *tree.Tree {
	n := 1 + rng.Intn(maxN)
	b := tree.NewBuilder(lt)
	b.Root(string(rune('a' + rng.Intn(4))))
	for i := 1; i < n; i++ {
		b.Child(int32(rng.Intn(i)), string(rune('a'+rng.Intn(4))))
	}
	return b.MustBuild()
}

// TestProfileSize: the 2,3-profile of a tree has one gram per leaf plus
// (fanout + q − 1) grams per internal node.
func TestProfileSize(t *testing.T) {
	lt := tree.NewLabelTable()
	cases := []struct {
		src  string
		p, q int
		want int
	}{
		{"{a}", 2, 3, 1},
		{"{a{b}{c}}", 2, 3, 4 + 1 + 1},        // root window count 2+3-1=4, two leaves
		{"{a{b{d}}{c}}", 2, 3, 4 + 3 + 1 + 1}, // root 4, b 1+3-1=3, leaves d c
		{"{a{b}}", 1, 1, 1 + 1},               // p=q=1: one gram per node
		{"{a{b}{c}{d}}", 3, 2, 4 + 3},         // root 3+2-1=4, three leaves
	}
	for _, c := range cases {
		tr := tree.MustParseBracket(c.src, lt)
		pr := pqgram.New(tr, c.p, c.q)
		if pr.Len() != c.want {
			t.Errorf("profile(%s, %d, %d) size = %d, want %d", c.src, c.p, c.q, pr.Len(), c.want)
		}
	}
}

func TestDistanceProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	lt := tree.NewLabelTable()
	for i := 0; i < 100; i++ {
		a := randomTree(rng, 30, lt)
		b := randomTree(rng, 30, lt)
		pa := pqgram.New(a, 2, 3)
		pb := pqgram.New(b, 2, 3)
		if d := pqgram.Distance(pa, pa); d != 0 {
			t.Fatalf("Distance(a,a) = %f", d)
		}
		dab := pqgram.Distance(pa, pb)
		if dab != pqgram.Distance(pb, pa) {
			t.Fatal("asymmetric")
		}
		if dab < 0 || dab > 1 {
			t.Fatalf("distance out of range: %f", dab)
		}
		if pqgram.BagDistance(pa, pb) < 0 {
			t.Fatal("negative bag distance")
		}
		if tree.Equal(a, b) && dab != 0 {
			t.Fatal("equal trees with nonzero distance")
		}
	}
}

// TestDistanceTracksEdits: small edits yield small normalised distance,
// disjoint-label trees yield distance 1.
func TestDistanceTracksEdits(t *testing.T) {
	lt := tree.NewLabelTable()
	a := tree.MustParseBracket("{a{b{c}{d}}{e{f}{g}}{h}}", lt)
	oneEdit := tree.Rename(a, 3, "x")
	pa := pqgram.New(a, 2, 3)
	pe := pqgram.New(oneEdit, 2, 3)
	if d := pqgram.Distance(pa, pe); d <= 0 || d > 0.6 {
		t.Errorf("one rename moved distance to %f", d)
	}
	disjoint := tree.MustParseBracket("{z{y{w}{v}}{u{t}{s}}{r}}", lt)
	if d := pqgram.Distance(pa, pqgram.New(disjoint, 2, 3)); d != 1 {
		t.Errorf("disjoint labels distance = %f, want 1", d)
	}
}

// TestApproxJoinRecall: on clustered near-duplicate data, pq-gram distance
// 0.5 admits a large fraction of the true TED join's pairs (recall), the
// quality claim of approximate filters. This is a statistical property of the
// generator, pinned with a fixed seed.
func TestApproxJoinRecall(t *testing.T) {
	ts := synth.Synthetic(120, 13)
	exact, _ := engine.Job{Source: engine.SortedLoop(), Tau: 3}.SelfJoin(ts)
	if len(exact) == 0 {
		t.Fatal("generator produced no similar pairs")
	}
	hits := 0
	for _, p := range exact {
		if pqgram.Distance(pqgram.New(ts[p.I], 2, 3), pqgram.New(ts[p.J], 2, 3)) <= 0.5 {
			hits++
		}
	}
	if recall := float64(hits) / float64(len(exact)); recall < 0.8 {
		t.Fatalf("recall %.2f below 0.8 (%d of %d)", recall, hits, len(exact))
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	lt := tree.NewLabelTable()
	a := tree.MustParseBracket("{a}", lt)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on profile shape mismatch")
		}
	}()
	pqgram.Distance(pqgram.New(a, 2, 3), pqgram.New(a, 1, 2))
}

func TestDeepChain(t *testing.T) {
	b := tree.NewBuilder(nil)
	cur := b.Root("a")
	for i := 0; i < 50000; i++ {
		cur = b.Child(cur, "a")
	}
	tr := b.MustBuild()
	pr := pqgram.New(tr, 2, 3)
	// Each of the 50000 internal nodes has one child: 1+3−1 = 3 windows;
	// the single leaf contributes 1.
	if want := 3*(tr.Size()-1) + 1; pr.Len() != want {
		t.Fatalf("chain profile = %d, want %d", pr.Len(), want)
	}
}

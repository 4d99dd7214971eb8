package treejoin_test

import (
	"testing"

	"treejoin"
	"treejoin/internal/synth"
)

func swissprotSoak() []*treejoin.Tree { return synth.Swissprot(600, 97) }
func treebankSoak() []*treejoin.Tree  { return synth.Treebank(600, 98) }

func TestDistanceWithCosts(t *testing.T) {
	lt := treejoin.NewLabelTable()
	a := treejoin.MustParseBracket("{a{b}{c}}", lt)
	b := treejoin.MustParseBracket("{a{b}{d}}", lt)
	if d := treejoin.DistanceWithCosts(a, b, treejoin.UnitCosts{}); d != 1 {
		t.Fatalf("unit = %d", d)
	}
	w := treejoin.WeightedCosts{DeleteCost: 2, InsertCost: 2, RenameCost: 5}
	// rename c->d costs 5; delete+insert costs 4.
	if d := treejoin.DistanceWithCosts(a, b, w); d != 4 {
		t.Fatalf("weighted = %d", d)
	}
}

func TestPQGramPublicAPI(t *testing.T) {
	lt := treejoin.NewLabelTable()
	a := treejoin.MustParseBracket("{a{b}{c}{d}}", lt)
	b := treejoin.MustParseBracket("{a{b}{c}{e}}", lt)
	pa := treejoin.NewPQGramProfile(a, 2, 3)
	pb := treejoin.NewPQGramProfile(b, 2, 3)
	if d := treejoin.PQGramDistance(pa, pa); d != 0 {
		t.Fatalf("self distance = %f", d)
	}
	d := treejoin.PQGramDistance(pa, pb)
	if d <= 0 || d >= 1 {
		t.Fatalf("near-duplicate distance = %f", d)
	}
	far := treejoin.MustParseBracket("{x{y}{z{w}}}", lt)
	if fd := treejoin.PQGramDistance(pa, treejoin.NewPQGramProfile(far, 2, 3)); fd != 1 {
		t.Fatalf("disjoint distance = %f", fd)
	}
}

// TestSoakAllProfiles is a larger end-to-end pass (skipped with -short):
// 600 trees per profile, PartSJ (sequential and parallel) versus the
// brute-force oracle at τ = 2.
func TestSoakAllProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	profiles := map[string][]*treejoin.Tree{
		"swissprot": swissprotSoak(),
		"treebank":  treebankSoak(),
	}
	for name, ts := range profiles {
		want, _ := selfJoin(t, ts, 2, treejoin.WithMethod(treejoin.MethodBruteForce), treejoin.WithWorkers(4))
		for _, opts := range [][]treejoin.Option{
			nil,
			{treejoin.WithWorkers(4)},
		} {
			got, _ := selfJoin(t, ts, 2, opts...)
			if len(got) != len(want) {
				t.Fatalf("%s %v: %d pairs, oracle %d", name, opts, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s %v: pair %d differs", name, opts, i)
				}
			}
		}
	}
}

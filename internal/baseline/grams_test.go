package baseline

import (
	"math/rand"
	"slices"
	"testing"

	"treejoin/internal/synth"
	"treejoin/internal/ted"
	"treejoin/internal/tree"
)

// gramBag returns t's Euler-tour q-gram multiset, sorted.
func gramBag(t *tree.Tree, q int) []uint64 {
	bag := appendGrams(nil, t, q)
	slices.Sort(bag)
	return bag
}

// bagDistance returns the multiset symmetric difference |a| + |b| − 2|a∩b| of
// two sorted bags.
func bagDistance(a, b []uint64) int {
	i, j, common := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			common++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return len(a) + len(b) - 2*common
}

// TestGramProfileBasics: window counts, identical trees, and the q < window
// degenerate case.
func TestGramProfileBasics(t *testing.T) {
	lt := tree.NewLabelTable()
	a := tree.MustParseBracket("{a{b}{c}}", lt)
	if g := gramBag(a, 3); len(g) != 2*a.Size()-3+1 {
		t.Fatalf("gram count %d, want %d", len(g), 2*a.Size()-3+1)
	}
	b := tree.MustParseBracket("{a{b}{c}}", lt)
	if d := bagDistance(gramBag(a, 3), gramBag(b, 3)); d != 0 {
		t.Fatalf("identical trees at distance %d", d)
	}
	single := tree.MustParseBracket("{a}", lt)
	if g := gramBag(single, 3); len(g) != 0 {
		t.Fatalf("single-node tree has %d 3-grams", len(g))
	}
	if d := bagDistance(gramBag(single, 3), gramBag(a, 3)); d > 4*3*2 {
		t.Fatalf("bag distance %d exceeds 4q·TED = %d", d, 4*3*2)
	}
}

// TestGramLowerBoundSound is the soundness property test: on randomized
// corpora, the Euler-gram bag distance |G1 △ G2| never exceeds 4q·TED — the
// invariant that lets MethodPQGram prune without losing results.
func TestGramLowerBoundSound(t *testing.T) {
	for _, q := range []int{1, 2, 3, 4} {
		for seed := int64(0); seed < 4; seed++ {
			ts := synth.Synthetic(30, 100+seed)
			bags := make([][]uint64, len(ts))
			for i, tr := range ts {
				bags[i] = gramBag(tr, q)
			}
			rng := rand.New(rand.NewSource(seed))
			for trial := 0; trial < 200; trial++ {
				i, j := rng.Intn(len(ts)), rng.Intn(len(ts))
				d := ted.Distance(ts[i], ts[j])
				if bag := bagDistance(bags[i], bags[j]); bag > 4*q*d {
					t.Fatalf("q=%d seed=%d: bag distance %d > 4q·TED = %d for trees %d,%d",
						q, seed, bag, 4*q*d, i, j)
				}
			}
		}
	}
}

// TestGramBoundTightOnEdits: single-edit neighbours stay within the 4q
// budget (the per-operation constant of the bound's proof).
func TestGramBoundTightOnEdits(t *testing.T) {
	lt := tree.NewLabelTable()
	base := tree.MustParseBracket("{a{b{c}{d}}{e{f}}}", lt)
	variants := []string{
		"{a{b{c}{d}}{e{f}{g}}}", // insert a leaf
		"{a{b{c}}{e{f}}}",       // delete a leaf
		"{a{b{c}{d}}{e{x}}}",    // rename a leaf
		"{a{b{c}{d}{f}}}",       // delete internal node e (children splice up)
	}
	for q := 1; q <= 4; q++ {
		pb := gramBag(base, q)
		for _, s := range variants {
			v := tree.MustParseBracket(s, lt)
			d := ted.Distance(base, v)
			bag := bagDistance(pb, gramBag(v, q))
			if bag > 4*q*d {
				t.Fatalf("q=%d %s: bag distance %d exceeds 4q·TED = %d", q, s, bag, 4*q*d)
			}
		}
	}
}

package core_test

import (
	"math/rand"
	"testing"

	"treejoin/internal/core"
	"treejoin/internal/sim"
	"treejoin/internal/synth"
	"treejoin/internal/tree"
)

// TestIncrementalRemove: after removals, each Add reports exactly the
// partners among the *live* trees — checked against a brute-force join over
// the live set at every step.
func TestIncrementalRemove(t *testing.T) {
	ts := synth.Synthetic(60, 47)
	const tau = 2
	rng := rand.New(rand.NewSource(53))
	inc := core.NewIncrementalCached(core.Options{Tau: tau}, nil)
	live := map[int]*tree.Tree{} // stream position -> tree
	for _, tr := range ts {
		// Occasionally remove a random live tree first.
		if len(live) > 4 && rng.Intn(3) == 0 {
			for pos := range live {
				if !inc.Remove(pos) {
					t.Fatalf("Remove(%d) failed", pos)
				}
				delete(live, pos)
				break
			}
		}
		got := inc.Add(tr)
		pos := inc.Len() - 1
		// Oracle: distances against every live tree.
		var want []sim.Pair
		for opos, other := range live {
			if d, ok := sim.DefaultVerifier(other, tr, tau); ok {
				want = append(want, sim.Pair{I: opos, J: pos, Dist: d})
			}
		}
		sim.SortPairs(want)
		if len(got) != len(want) {
			t.Fatalf("pos %d: %d pairs, want %d", pos, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("pos %d: pair %d = %v, want %v", pos, i, got[i], want[i])
			}
		}
		live[pos] = tr
	}
	if inc.Live() != len(live) {
		t.Fatalf("Live() = %d, want %d", inc.Live(), len(live))
	}
}

// TestIncrementalRemoveEdgeCases: invalid and repeated removals are
// rejected; removed positions stay stable and report nil trees.
func TestIncrementalRemoveEdgeCases(t *testing.T) {
	lt := tree.NewLabelTable()
	inc := core.NewIncrementalCached(core.Options{Tau: 1}, nil)
	inc.Add(tree.MustParseBracket("{a{b}}", lt))
	inc.Add(tree.MustParseBracket("{a{c}}", lt))
	if inc.Remove(-1) || inc.Remove(2) {
		t.Fatal("out-of-range removal accepted")
	}
	if !inc.Remove(0) {
		t.Fatal("first removal rejected")
	}
	if inc.Remove(0) {
		t.Fatal("double removal accepted")
	}
	if inc.Tree(0) != nil {
		t.Fatal("removed tree still accessible")
	}
	if inc.Len() != 2 || inc.Live() != 1 {
		t.Fatalf("Len=%d Live=%d", inc.Len(), inc.Live())
	}
	// The removed tree no longer matches.
	pairs := inc.Add(tree.MustParseBracket("{a{b}}", lt))
	for _, p := range pairs {
		if p.I == 0 {
			t.Fatalf("removed tree appeared in results: %v", p)
		}
	}
}

// TestIncrementalUpdate: Update is Remove+Add with a fresh stable position.
func TestIncrementalUpdate(t *testing.T) {
	lt := tree.NewLabelTable()
	inc := core.NewIncrementalCached(core.Options{Tau: 1}, nil)
	inc.Add(tree.MustParseBracket("{a{b}{c}}", lt))
	inc.Add(tree.MustParseBracket("{x{y{z}}}", lt))
	pos, pairs := inc.Update(0, tree.MustParseBracket("{a{b}{d}}", lt))
	if pos != 2 {
		t.Fatalf("new position %d", pos)
	}
	if len(pairs) != 0 {
		// Old tree 0 is gone; tree 1 is far away.
		t.Fatalf("unexpected pairs %v", pairs)
	}
	got := inc.Add(tree.MustParseBracket("{a{b}{d}}", lt))
	if len(got) != 1 || got[0].I != 2 || got[0].Dist != 0 {
		t.Fatalf("got %v, want the updated tree at distance 0", got)
	}
}

// TestIncrementalCompaction: heavy removal churn triggers index rebuilds and
// results stay correct throughout (including small trees).
func TestIncrementalCompaction(t *testing.T) {
	lt := tree.NewLabelTable()
	const tau = 1
	inc := core.NewIncrementalCached(core.Options{Tau: tau}, nil)
	rng := rand.New(rand.NewSource(59))
	var liveTrees []*tree.Tree
	var livePos []int
	for round := 0; round < 120; round++ {
		// Small and large trees mixed, so both index paths see churn.
		n := 2 + rng.Intn(10)
		b := tree.NewBuilder(lt)
		b.Root("r")
		for j := 1; j < n; j++ {
			b.Child(int32(rng.Intn(j)), string(rune('a'+rng.Intn(3))))
		}
		tr := b.MustBuild()
		got := inc.Add(tr)
		var want int
		for _, other := range liveTrees {
			if _, ok := sim.DefaultVerifier(other, tr, tau); ok {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("round %d: %d pairs, want %d", round, len(got), want)
		}
		liveTrees = append(liveTrees, tr)
		livePos = append(livePos, inc.Len()-1)
		// Remove about two thirds of the stream as it grows.
		for len(liveTrees) > 3 && rng.Intn(3) > 0 {
			k := rng.Intn(len(liveTrees))
			inc.Remove(livePos[k])
			liveTrees = append(liveTrees[:k], liveTrees[k+1:]...)
			livePos = append(livePos[:k], livePos[k+1:]...)
		}
	}
	if inc.Live() != len(liveTrees) {
		t.Fatalf("Live() = %d, want %d", inc.Live(), len(liveTrees))
	}
}

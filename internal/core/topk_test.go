package core_test

import (
	"context"
	"slices"
	"sync"
	"testing"

	"treejoin"
	"treejoin/internal/core"
	"treejoin/internal/sim"
	"treejoin/internal/synth"
	"treejoin/internal/ted"
	"treejoin/internal/tree"
)

// The threshold-free queries are sim.ExpandTau over this package's join and
// index, written once on treejoin.Corpus; these tests hold them to exhaustive
// TED on corpora of one part and of three.

// eachPartCount runs f on a one-part and on a three-part corpus over ts.
func eachPartCount(t *testing.T, ts []*tree.Tree, f func(cp *treejoin.Corpus)) {
	t.Helper()
	for _, parts := range []int{1, 3} {
		cp, err := treejoin.NewSharded(parts, ts)
		if err != nil {
			t.Fatal(err)
		}
		f(cp)
	}
}

func topK(t *testing.T, cp *treejoin.Corpus, k int) []sim.Pair {
	t.Helper()
	got, err := cp.TopK(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func nearest(t *testing.T, cp *treejoin.Corpus, q *tree.Tree, k int) []core.Match {
	t.Helper()
	got, err := cp.KNN(context.Background(), q, k)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// topkOracle computes the true k closest pairs by exhaustive TED.
func topkOracle(ts []*tree.Tree, k int) []sim.Pair {
	var all []sim.Pair
	for i := range ts {
		for j := i + 1; j < len(ts); j++ {
			all = append(all, sim.Pair{I: i, J: j, Dist: ted.Distance(ts[i], ts[j])})
		}
	}
	slices.SortFunc(all, sim.ComparePairsByDist)
	return all[:min(k, len(all))]
}

// knnOracle computes the true k nearest trees by exhaustive TED.
func knnOracle(ts []*tree.Tree, q *tree.Tree, k int) []core.Match {
	all := make([]core.Match, len(ts))
	for i, t := range ts {
		all[i] = core.Match{Pos: i, Dist: ted.Distance(q, t)}
	}
	slices.SortFunc(all, core.CompareMatchesByDist)
	return all[:min(k, len(all))]
}

func TestTopKMatchesOracle(t *testing.T) {
	ts := synth.Synthetic(40, 23)
	eachPartCount(t, ts, func(cp *treejoin.Corpus) {
		for _, k := range []int{1, 3, 10, 25} {
			if got, want := topK(t, cp, k), topkOracle(ts, k); !slices.Equal(got, want) {
				t.Fatalf("parts=%d k=%d: %v, want %v", cp.NumShards(), k, got, want)
			}
		}
	})
}

func TestTopKEdgeCases(t *testing.T) {
	ts := synth.Synthetic(12, 29)
	eachPartCount(t, ts, func(cp *treejoin.Corpus) {
		if got := topK(t, cp, 0); got != nil {
			t.Fatalf("k=0 returned %v", got)
		}
		// k above the pair count returns every pair, sorted by distance.
		all := len(ts) * (len(ts) - 1) / 2
		if got := topK(t, cp, all+100); !slices.Equal(got, topkOracle(ts, all)) {
			t.Fatalf("k beyond pair count: %d pairs, want all %d by distance", len(got), all)
		}
	})
	for _, few := range [][]*tree.Tree{ts[:1], nil} {
		eachPartCount(t, few, func(cp *treejoin.Corpus) {
			if got := topK(t, cp, 5); got != nil {
				t.Fatalf("%d trees returned %v", len(few), got)
			}
		})
	}
}

// TestTopKIdenticalTrees: duplicates give zero-distance pairs that must rank
// first.
func TestTopKIdenticalTrees(t *testing.T) {
	lt := tree.NewLabelTable()
	a := tree.MustParseBracket("{a{b}{c{d}}}", lt)
	ts := []*tree.Tree{a, a.Clone(), tree.MustParseBracket("{x{y}}", lt), a.Clone()}
	eachPartCount(t, ts, func(cp *treejoin.Corpus) {
		got := topK(t, cp, 3)
		if len(got) != 3 || got[0].Dist+got[1].Dist+got[2].Dist != 0 {
			t.Fatalf("expected the three duplicate pairs first, got %v", got)
		}
	})
}

func TestKNNMatchesOracle(t *testing.T) {
	ts := synth.Synthetic(40, 31)
	eachPartCount(t, ts, func(cp *treejoin.Corpus) {
		for _, q := range []*tree.Tree{ts[3], ts[17], ts[39]} {
			for _, k := range []int{1, 4, 12} {
				if got, want := nearest(t, cp, q, k), knnOracle(ts, q, k); !slices.Equal(got, want) {
					t.Fatalf("parts=%d k=%d: %v, want %v", cp.NumShards(), k, got, want)
				}
			}
		}
	})
}

func TestKNNForeignQuery(t *testing.T) {
	lt := tree.NewLabelTable()
	ts := []*tree.Tree{
		tree.MustParseBracket("{a{b}{c}}", lt),
		tree.MustParseBracket("{a{b}{c}{d}}", lt),
		tree.MustParseBracket("{x{y{z{w}}}}", lt),
	}
	q := tree.MustParseBracket("{a{b}{c}{d}{e}}", lt)
	eachPartCount(t, ts, func(cp *treejoin.Corpus) {
		want := []core.Match{{Pos: 1, Dist: 1}, {Pos: 0, Dist: 2}}
		if got := nearest(t, cp, q, 2); !slices.Equal(got, want) {
			t.Fatalf("nearest = %v, want %v", got, want)
		}
	})
}

func TestKNNConcurrent(t *testing.T) {
	ts := synth.Synthetic(30, 41)
	eachPartCount(t, ts, func(cp *treejoin.Corpus) {
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ms, err := cp.KNN(context.Background(), ts[w%len(ts)], 3)
				if err != nil || len(ms) != 3 || ms[0].Dist != 0 {
					t.Errorf("query %d: %v, err %v: want three matches, itself first", w, ms, err)
				}
			}()
		}
		wg.Wait()
	})
}

func TestKNNEdgeCases(t *testing.T) {
	lt := tree.NewLabelTable()
	q := tree.MustParseBracket("{a}", lt)
	eachPartCount(t, nil, func(cp *treejoin.Corpus) {
		if got := nearest(t, cp, q, 3); got != nil {
			t.Fatalf("empty collection returned %v", got)
		}
	})
	eachPartCount(t, []*tree.Tree{tree.MustParseBracket("{b{c}}", lt)}, func(cp *treejoin.Corpus) {
		if got := nearest(t, cp, q, 5); !slices.Equal(got, []core.Match{{Pos: 0, Dist: 2}}) {
			t.Fatalf("singleton collection returned %v", got)
		}
		if got := nearest(t, cp, q, 0); got != nil {
			t.Fatalf("k=0 returned %v", got)
		}
	})
}

package core_test

import (
	"math/rand"
	"sync"
	"testing"

	"treejoin/internal/core"
	"treejoin/internal/synth"
	"treejoin/internal/ted"
	"treejoin/internal/tree"
)

// TestSearchMatchesBruteForce: Search(q) equals a linear scan with exact TED,
// for queries both from inside and outside the collection, across thresholds.
func TestSearchMatchesBruteForce(t *testing.T) {
	ts := synth.Generate(synth.Params{
		N: 80, AvgSize: 24, SizeJitter: 0.4, MaxFanout: 4, MaxDepth: 8,
		Labels: 10, DepthBias: 0, Cluster: 4, Decay: 0.06, Seed: 17})
	queries := synth.Generate(synth.Params{
		N: 15, AvgSize: 24, SizeJitter: 0.4, MaxFanout: 4, MaxDepth: 8,
		Labels: 10, DepthBias: 0, Cluster: 1, Decay: 0, Seed: 18})
	// Queries must share the collection's label table; rebuild them there.
	lt := ts[0].Labels
	rebuilt := make([]*tree.Tree, 0, len(queries)+5)
	for _, q := range queries {
		rebuilt = append(rebuilt, tree.MustParseBracket(tree.FormatBracket(q), lt))
	}
	rebuilt = append(rebuilt, ts[3], ts[40]) // members of the collection
	// A member's copy under a distinct pointer: no per-tree artifact may be
	// looked up for the query by identity.
	rebuilt = append(rebuilt, tree.MustParseBracket(tree.FormatBracket(ts[7]), lt))
	rebuilt = append(rebuilt, tree.MustParseBracket("{l0}", lt))

	for tau := 0; tau <= 3; tau++ {
		ix := core.NewIndexCached(ts, core.Options{Tau: tau}, nil)
		for qi, q := range rebuilt {
			got := ix.Search(q)
			var want []core.Match
			for i, c := range ts {
				if d := ted.Distance(c, q); d <= tau {
					want = append(want, core.Match{Pos: i, Dist: d})
				}
			}
			if len(got) != len(want) {
				t.Fatalf("τ=%d q%d: %d matches, want %d (%v vs %v)", tau, qi, len(got), len(want), got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("τ=%d q%d: match %d = %v, want %v", tau, qi, i, got[i], want[i])
				}
			}
		}
	}
}

func TestSearchConcurrent(t *testing.T) {
	ts := synth.Synthetic(60, 19)
	ix := core.NewIndexCached(ts, core.Options{Tau: 2}, nil)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 20; i++ {
				q := ts[rng.Intn(len(ts))]
				ms := ix.Search(q)
				found := false
				for _, m := range ms {
					if ts[m.Pos] == q && m.Dist == 0 {
						found = true
					}
				}
				if !found {
					errs <- "query tree did not match itself"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func TestSearchTinyTreesAndEmpty(t *testing.T) {
	lt := tree.NewLabelTable()
	ix := core.NewIndexCached(nil, core.Options{Tau: 2}, nil)
	if got := ix.Search(tree.MustParseBracket("{a}", lt)); len(got) != 0 {
		t.Fatalf("empty index returned %v", got)
	}
	ts := []*tree.Tree{
		tree.MustParseBracket("{a}", lt),
		tree.MustParseBracket("{a{b}}", lt),
		tree.MustParseBracket("{x{y{z{w{v{u}}}}}}", lt),
	}
	ix = core.NewIndexCached(ts, core.Options{Tau: 1}, nil)
	got := ix.Search(tree.MustParseBracket("{a{c}}", lt))
	if len(got) != 2 || got[0].Pos != 0 || got[1].Pos != 1 {
		t.Fatalf("search = %v", got)
	}
}

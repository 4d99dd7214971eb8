package core_test

import (
	"context"
	"testing"

	"treejoin/internal/core"
	"treejoin/internal/sim"
	"treejoin/internal/synth"
	"treejoin/internal/tree"
)

// chunkedSelfJoin runs the streaming self join, whose size order is cut into
// several probe chunks per worker over the one frozen index.
func chunkedSelfJoin(ts []*tree.Tree, opts core.Options) ([]sim.Pair, *sim.Stats, error) {
	var pairs []sim.Pair
	stats, err := opts.Job(nil).StreamSelf(context.Background(), ts, func(p sim.Pair) bool {
		pairs = append(pairs, p)
		return true
	})
	sim.SortPairs(pairs)
	return pairs, stats, err
}

// TestShardedMatchesSelfJoin: the chunked join returns exactly the
// sequential join's pairs, for every worker count (and so chunk count).
func TestShardedMatchesSelfJoin(t *testing.T) {
	ts := synth.Synthetic(120, 43)
	for _, tau := range []int{1, 3} {
		want, _ := core.Options{Tau: tau}.Job(nil).SelfJoin(ts)
		for _, workers := range []int{0, 1, 2, 3, 7, 16} {
			got, stats, err := chunkedSelfJoin(ts, core.Options{Tau: tau, Workers: workers})
			if err != nil {
				t.Fatalf("τ=%d workers=%d: %v", tau, workers, err)
			}
			if len(got) != len(want) {
				t.Fatalf("τ=%d workers=%d: %d pairs, want %d", tau, workers, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("τ=%d workers=%d: pair %d = %v, want %v", tau, workers, i, got[i], want[i])
				}
			}
			if stats.Results != int64(len(want)) {
				t.Fatalf("stats results %d", stats.Results)
			}
		}
	}
}

// TestShardedSizeSkip: a collection of two widely separated size clusters
// joins with zero cross-cluster candidates, however it is chunked.
func TestShardedSizeSkip(t *testing.T) {
	lt := tree.NewLabelTable()
	var ts []*tree.Tree
	// Cluster A: chains of 3; cluster B: chains of 30.
	for i := 0; i < 10; i++ {
		b := tree.NewBuilder(lt)
		n := b.Root("a")
		for j := 0; j < 2; j++ {
			n = b.Child(n, "a")
		}
		ts = append(ts, b.MustBuild())
	}
	for i := 0; i < 10; i++ {
		b := tree.NewBuilder(lt)
		n := b.Root("b")
		for j := 0; j < 29; j++ {
			n = b.Child(n, "b")
		}
		ts = append(ts, b.MustBuild())
	}
	got, _, err := chunkedSelfJoin(ts, core.Options{Tau: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := core.Options{Tau: 2}.Job(nil).SelfJoin(ts)
	if len(got) != len(want) {
		t.Fatalf("%d pairs, want %d", len(got), len(want))
	}
	for _, p := range got {
		if (p.I < 10) != (p.J < 10) {
			t.Fatalf("cross-cluster pair %v", p)
		}
	}
}

// TestShardedEdgeCases: tiny collections, more workers than trees, empty
// input.
func TestShardedEdgeCases(t *testing.T) {
	lt := tree.NewLabelTable()
	if got, _, err := chunkedSelfJoin(nil, core.Options{Tau: 1, Workers: 4}); err != nil || len(got) != 0 {
		t.Fatalf("empty collection: %v", got)
	}
	a := tree.MustParseBracket("{a{b}}", lt)
	b := tree.MustParseBracket("{a{c}}", lt)
	got, _, err := chunkedSelfJoin([]*tree.Tree{a, b}, core.Options{Tau: 1, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].I != 0 || got[0].J != 1 {
		t.Fatalf("two trees: %v", got)
	}
}

// TestShardedDuplicateTrees: repeated identical trees across chunk
// boundaries still produce each pair exactly once.
func TestShardedDuplicateTrees(t *testing.T) {
	lt := tree.NewLabelTable()
	a := tree.MustParseBracket("{a{b}{c}}", lt)
	ts := []*tree.Tree{a, a.Clone(), a.Clone(), a.Clone(), a.Clone()}
	got, _, err := chunkedSelfJoin(ts, core.Options{Tau: 0, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if want := 5 * 4 / 2; len(got) != want {
		t.Fatalf("%d pairs, want %d", len(got), want)
	}
	seen := map[[2]int]bool{}
	for _, p := range got {
		k := [2]int{p.I, p.J}
		if seen[k] {
			t.Fatalf("duplicate pair %v", p)
		}
		seen[k] = true
	}
}

// TestShardedInvalidOptions: a malformed threshold comes back from the
// streaming entry as an error — never a panic — since it sits behind
// network-facing callers (a bad request must not crash a server).
func TestShardedInvalidOptions(t *testing.T) {
	ts := synth.Synthetic(10, 7)
	pairs, stats, err := chunkedSelfJoin(ts, core.Options{Tau: -3, Workers: 2})
	if err == nil {
		t.Fatal("negative threshold: want error, got nil")
	}
	if pairs != nil || stats.Results != 0 {
		t.Fatalf("invalid options returned results: %v %v", pairs, stats)
	}
}

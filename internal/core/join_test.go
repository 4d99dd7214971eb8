package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"treejoin/internal/engine"
	"treejoin/internal/lcrs"
	"treejoin/internal/sim"
	"treejoin/internal/synth"
	"treejoin/internal/ted"
	"treejoin/internal/tree"
)

// The joins' results through the public API — the default configuration,
// every method, cross joins, worker counts, Incremental deltas, Search, TopK
// and KNN — are held to a Zhang–Shasha model by the root package's history
// harness. The tests here hold what only this package reaches: the
// partitioning ablation, the counters, the verifier seam and the edges of the
// package's own entry points.

// partSJJob is the engine job of a PartSJ join probing x (NewSource) behind
// the given prefilters, with o's threshold, verifier and workers.
func partSJJob(o Options, x *Index, filters ...engine.PairFilter) engine.Job {
	return engine.Job{Source: NewSource(x), Filters: filters, Tau: o.Tau, Verifier: o.Verifier, Workers: o.Workers}
}

// partSJSelfJoin is the PartSJ self join of ts under o, on an index built for
// it.
func partSJSelfJoin(ts []*tree.Tree, o Options) ([]sim.Pair, *sim.Stats) {
	return partSJJob(o, NewIndexCached(ts, o, nil)).SelfJoin(ts)
}

// loopJoin is a baseline's self join: the sorted nested loop feeding filters;
// with none it is the brute-force oracle.
func loopJoin(ts []*tree.Tree, tau int, filters ...engine.PairFilter) ([]sim.Pair, *sim.Stats) {
	return engine.Job{Source: engine.SortedLoop(), Filters: filters, Tau: tau}.SelfJoin(ts)
}

// testCollections draws four collections of n trees from clusteredTrees,
// the package's one generator: near-duplicate clusters, exact copies, and
// trees too small to partition.
func testCollections(n int) [][]*tree.Tree {
	rng, lt := rand.New(rand.NewSource(7)), tree.NewLabelTable()
	cols := make([][]*tree.Tree, 4)
	for i := range cols {
		cols[i] = clusteredTrees(rng, n, lt)
	}
	return cols
}

// randomIndex is the index of §4.3's ablation: ts's trees cut by
// ComputeRandom from one seeded stream instead of MaxMinSize, on one
// goroutine, since the stream is sequential.
func randomIndex(ts []*tree.Tree, tau int, seed int64) *Index {
	rng := rand.New(rand.NewSource(seed))
	return newIndex(ts, Options{Tau: tau}, nil, 1, func(i int, _ *partitionState) *Partition {
		return ComputeRandom(lcrs.Build(ts[i]), 2*tau+1, rng)
	})
}

// TestJoinMethodsAgreeWithOracle holds PartSJ to the brute-force join at
// every threshold 0..4, over the balanced partitions and over random ones:
// Lemma 2 holds for any δ-partitioning, so both return exactly the oracle's
// result set. The source probes the index it is handed and charges no build.
func TestJoinMethodsAgreeWithOracle(t *testing.T) {
	for c, ts := range testCollections(48) {
		for tau := 0; tau <= 4; tau++ {
			want, _ := loopJoin(ts, tau)
			for name, x := range map[string]*Index{
				"PRT":        NewIndexCached(ts, Options{Tau: tau}, nil),
				"PRT-random": randomIndex(ts, tau, 99),
			} {
				got, st := partSJJob(Options{Tau: tau}, x).SelfJoin(ts)
				if !slices.Equal(got, want) {
					t.Errorf("collection %d %s τ=%d: %d pairs, oracle %d\n got: %v\nwant: %v", c, name, tau, len(got), len(want), got, want)
				}
				if st.IndexBuildTime != 0 || st.PartitionTime != 0 {
					t.Fatalf("collection %d %s τ=%d: build time %v, partition time %v; the source builds nothing", c, name, tau, st.IndexBuildTime, st.PartitionTime)
				}
			}
		}
	}
}

// TestJoinStatsSanity: candidates bound results, PartSJ candidates never
// exceed the size-filter pair count, and counters are coherent.
func TestJoinStatsSanity(t *testing.T) {
	for c, ts := range testCollections(24) {
		for tau := 1; tau <= 3; tau++ {
			_, bfStats := loopJoin(ts, tau)
			pairs, st := partSJSelfJoin(ts, Options{Tau: tau})
			if st.Results != int64(len(pairs)) {
				t.Fatalf("Results stat %d != %d", st.Results, len(pairs))
			}
			if st.Candidates < st.Results {
				t.Fatalf("candidates %d < results %d", st.Candidates, st.Results)
			}
			if st.Candidates > bfStats.Candidates {
				t.Fatalf("collection %d τ=%d: PartSJ candidates %d exceed size-filter pairs %d",
					c, tau, st.Candidates, bfStats.Candidates)
			}
			if st.MatchHits > st.MatchTests {
				t.Fatalf("hits %d > tests %d", st.MatchHits, st.MatchTests)
			}
		}
	}
}

func TestSelfJoinEdgeCases(t *testing.T) {
	lt := tree.NewLabelTable()
	if pairs, st := partSJSelfJoin(nil, Options{Tau: 2}); len(pairs) != 0 || st.Results != 0 {
		t.Fatal("empty collection should produce no pairs")
	}
	one := []*tree.Tree{tree.MustParseBracket("{a}", lt)}
	if pairs, _ := partSJSelfJoin(one, Options{Tau: 3}); len(pairs) != 0 {
		t.Fatal("single tree should produce no pairs")
	}
	// τ = 0: exactly the duplicate pairs.
	dups := []*tree.Tree{
		tree.MustParseBracket("{a{b}}", lt),
		tree.MustParseBracket("{a{b}}", lt),
		tree.MustParseBracket("{a{c}}", lt),
		tree.MustParseBracket("{a{b}}", lt),
	}
	if pairs, _ := partSJSelfJoin(dups, Options{Tau: 0}); !slices.Equal(pairs, []sim.Pair{{I: 0, J: 1}, {I: 0, J: 3}, {I: 1, J: 3}}) {
		t.Fatalf("τ=0 pairs = %v", pairs)
	}
	// All trees smaller than δ: everything flows through the small-tree path.
	tiny := []*tree.Tree{
		tree.MustParseBracket("{a}", lt),
		tree.MustParseBracket("{b}", lt),
		tree.MustParseBracket("{a{b}}", lt),
		tree.MustParseBracket("{a{c}}", lt),
	}
	got, st := partSJSelfJoin(tiny, Options{Tau: 2})
	oracle, _ := loopJoin(tiny, 2)
	if !slices.Equal(got, oracle) {
		t.Fatalf("tiny join = %v, oracle %v", got, oracle)
	}
	if st.SmallTreeFallback == 0 {
		t.Fatal("small-tree path not exercised")
	}
}

// TestSelfJoinPanicsOnNegativeTau: the collecting SelfJoin of a PartSJ job
// panics on τ < 0 (a Corpus validates first and returns an error).
func TestSelfJoinPanicsOnNegativeTau(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on τ < 0")
		}
	}()
	partSJJob(Options{Tau: -1}, nil).SelfJoin(nil)
}

// TestShardedInvalidOptions: a malformed threshold comes back from the
// streaming entry as an error — never a panic — since it sits behind
// network-facing callers (a bad request must not crash a server).
func TestShardedInvalidOptions(t *testing.T) {
	emitted := 0
	stats, err := partSJJob(Options{Tau: -3, Workers: 2}, nil).StreamSelf(context.Background(), synth.Synthetic(10, 7), func(sim.Pair) bool {
		emitted++
		return true
	})
	if err == nil {
		t.Fatal("negative threshold: want error, got nil")
	}
	if emitted != 0 || stats.Results != 0 {
		t.Fatalf("invalid options returned results: %d pairs, %v", emitted, stats)
	}
}

// TestCustomVerifierInjection: the injected verifier is used for every
// candidate and only candidates.
func TestCustomVerifierInjection(t *testing.T) {
	ts := synth.Generate(synth.Params{
		N: 30, AvgSize: 18, SizeJitter: 0.3, MaxFanout: 4, MaxDepth: 6,
		Labels: 8, DepthBias: 0, Cluster: 3, Decay: 0.05, Seed: 21})
	calls := 0
	v := func(t1, t2 *tree.Tree, tau int) (int, bool) {
		calls++
		return ted.DistanceBounded(t1, t2, tau)
	}
	pairs, st := partSJSelfJoin(ts, Options{Tau: 2, Verifier: v})
	if int64(calls) != st.Candidates {
		t.Fatalf("verifier calls %d != candidates %d", calls, st.Candidates)
	}
	oracle, _ := loopJoin(ts, 2)
	if !slices.Equal(pairs, oracle) {
		t.Fatal("custom verifier changed results")
	}
}

// TestVerifierFailureInjection: a verifier that rejects everything yields no
// results but full candidate accounting; one that accepts everything yields
// exactly the candidate set (join plumbing does not second-guess the
// verifier).
func TestVerifierFailureInjection(t *testing.T) {
	ts := synth.Synthetic(40, 41)
	rejectAll := func(a, b *tree.Tree, tau int) (int, bool) { return tau + 1, false }
	pairs, st := partSJSelfJoin(ts, Options{Tau: 2, Verifier: rejectAll})
	if len(pairs) != 0 {
		t.Fatalf("reject-all verifier produced %d pairs", len(pairs))
	}
	if st.Candidates == 0 {
		t.Fatal("no candidates reached the verifier")
	}
	acceptAll := func(a, b *tree.Tree, tau int) (int, bool) { return 0, true }
	pairs, st = partSJSelfJoin(ts, Options{Tau: 2, Verifier: acceptAll})
	if int64(len(pairs)) != st.Candidates {
		t.Fatalf("accept-all: %d pairs vs %d candidates", len(pairs), st.Candidates)
	}
}

// TestIncrementalRemoveEdgeCases: invalid and repeated removals are
// rejected; removed positions stay stable and report nil trees.
func TestIncrementalRemoveEdgeCases(t *testing.T) {
	lt := tree.NewLabelTable()
	inc := NewIncrementalCached(Options{Tau: 1}, nil)
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
	inc := NewIncrementalCached(Options{Tau: 1}, nil)
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

// TestKNNIndexCacheEviction: a per-threshold index cache — the
// engine.IndexLRU of Index a corpus part keeps, and the expanding search
// of KNN fills — is bounded: it never holds more than its capacity, evicts
// least-recently-used entries, and eviction never changes query results.
func TestKNNIndexCacheEviction(t *testing.T) {
	ts := synth.Synthetic(30, 19)
	artifacts := engine.NewCache()
	lru := engine.NewIndexLRU[int, *Index](2)
	indexAt := func(tau int) *Index {
		ix, _, err := lru.Get(context.Background(), tau, func() *Index {
			return NewIndexCached(ts, Options{Tau: tau, Workers: 1}, artifacts)
		})
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	evictions := func() int64 {
		_, _, n := lru.Counts()
		return n
	}

	for _, tau := range []int{1, 2, 4, 8} {
		indexAt(tau)
	}
	if n, _, _ := lru.Counts(); n > 2 {
		t.Fatalf("cache holds %d indexes, cap 2", n)
	}
	if ev := evictions(); ev < 2 {
		t.Fatalf("evictions = %d, want ≥ 2 after 4 distinct thresholds", ev)
	}

	// LRU order: touching 4 then inserting 16 must evict 8, not 4.
	indexAt(4)
	ix4 := indexAt(4) // cached: same pointer both times
	if indexAt(4) != ix4 {
		t.Fatal("repeated indexAt(4) rebuilt a cached index")
	}
	ev := evictions()
	indexAt(16)
	if evictions() != ev+1 {
		t.Fatalf("inserting past cap evicted %d entries, want 1", evictions()-ev)
	}
	if indexAt(4) != ix4 {
		t.Fatal("most-recently-used index 4 was evicted instead of 8")
	}

	// Results are identical with and without eviction pressure.
	for _, q := range ts[:5] {
		for _, tau := range []int{1, 2, 4} {
			want, _ := NewIndexCached(ts, Options{Tau: tau}, nil).SearchCtx(context.Background(), q, nil)
			if got, _ := indexAt(tau).SearchCtx(context.Background(), q, nil); !slices.Equal(got, want) {
				t.Fatalf("τ=%d: search through the cycling cache %v, fresh index %v", tau, got, want)
			}
		}
	}
}

func ExampleNewSource() {
	lt := tree.NewLabelTable()
	ts := []*tree.Tree{
		tree.MustParseBracket("{article{title{Go}}{year{2015}}}", lt),
		tree.MustParseBracket("{article{title{Go!}}{year{2015}}}", lt),
		tree.MustParseBracket("{book{title{SQL}}{year{1999}}}", lt),
	}
	pairs, _ := engine.Job{Source: NewSource(NewIndexCached(ts, Options{Tau: 1}, nil)), Tau: 1}.SelfJoin(ts)
	for _, p := range pairs {
		fmt.Printf("trees %d and %d are within distance %d\n", p.I, p.J, p.Dist)
	}
	// Output:
	// trees 0 and 1 are within distance 1
}

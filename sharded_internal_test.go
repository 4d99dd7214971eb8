package treejoin

import (
	"context"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"treejoin/internal/sim"
)

// TestFoldStats: the sharded rollup sums every counter and duration, merges
// stages by name in first-seen order, and reports a single source only when
// every round agrees.
func TestFoldStats(t *testing.T) {
	total := &sim.Stats{Trees: 10}
	foldStats(total, &sim.Stats{
		Candidates: 5, Results: 2,
		CandTime: time.Millisecond, VerifyTime: 2 * time.Millisecond,
		Source: "token-index",
		Stages: []sim.StageStats{
			{Name: "HIST", In: 100, Pruned: 60, SampledNs: 10, Sampled: 4},
		},
		PostingsScanned: 7, SkippedByCount: 3, DPAvoided: 2, SeqRejects: 1,
	})
	foldStats(total, &sim.Stats{
		Candidates: 3, Results: 1,
		CandTime: time.Millisecond, VerifyTime: time.Millisecond,
		Source: "token-index",
		Stages: []sim.StageStats{
			{Name: "HIST", In: 40, Pruned: 10, SampledNs: 5, Sampled: 2},
			{Name: "STR", In: 30, Pruned: 5},
		},
		PostingsScanned: 1, SkippedByCount: 2, DPAvoided: 1, SeqRejects: 1,
	})
	foldStats(total, nil) // a skipped round folds as a no-op

	if total.Candidates != 8 || total.Results != 3 {
		t.Fatalf("counters: Candidates=%d Results=%d", total.Candidates, total.Results)
	}
	if total.CandTime != 2*time.Millisecond || total.VerifyTime != 3*time.Millisecond {
		t.Fatalf("durations: Cand=%v Verify=%v", total.CandTime, total.VerifyTime)
	}
	if total.PostingsScanned != 8 || total.SkippedByCount != 5 || total.DPAvoided != 3 || total.SeqRejects != 2 {
		t.Fatalf("index/verifier counters wrong: %+v", total)
	}
	if total.Source != "token-index" {
		t.Fatalf("source = %q, want token-index", total.Source)
	}
	if len(total.Stages) != 2 || total.Stages[0].Name != "HIST" || total.Stages[1].Name != "STR" {
		t.Fatalf("stages = %+v", total.Stages)
	}
	if total.Stages[0].In != 140 || total.Stages[0].Pruned != 70 ||
		total.Stages[0].SampledNs != 15 || total.Stages[0].Sampled != 6 {
		t.Fatalf("HIST merge = %+v", total.Stages[0])
	}

	foldStats(total, &sim.Stats{Source: "sorted-loop"})
	if total.Source != "mixed" {
		t.Fatalf("disagreeing sources: %q, want mixed", total.Source)
	}
}

// TestShardedRollupMatchesRounds: the rollup a sharded self join publishes is
// exactly the field-wise sum of its rounds — checked by comparing against the
// sum of each round run individually on the same pinned shard views.
func TestShardedRollupMatchesRounds(t *testing.T) {
	ts := chainForest(24)
	sc, err := NewSharded(3, ts)
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := sc.SelfJoin(t.Context(), 2, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Trees != len(ts) {
		t.Fatalf("rollup Trees = %d, want %d", stats.Trees, len(ts))
	}

	// Re-run every round by hand on the same pinned state and sum.
	st := sc.state.Load()
	want := &sim.Stats{Trees: len(ts)}
	c := buildConfig([]Option{WithWorkers(1)})
	sum := func(part *sim.Stats, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		foldStats(want, part)
	}
	for s := range st.views {
		if st.views[s].Len() >= 2 {
			sum(st.views[s].streamSelfWith(t.Context(), 2, c, func(Pair) bool { return true }))
		}
	}
	for a := range st.views {
		for b := a + 1; b < len(st.views); b++ {
			if st.views[a].Len() > 0 && st.views[b].Len() > 0 {
				sum(st.views[a].streamJoinWith(t.Context(), st.views[b], 2, c, func(Pair) bool { return true }))
			}
		}
	}
	if stats.Candidates != want.Candidates || stats.Results != want.Results {
		t.Fatalf("rollup Candidates/Results = %d/%d, want %d/%d",
			stats.Candidates, stats.Results, want.Candidates, want.Results)
	}
	if stats.PostingsScanned != want.PostingsScanned || stats.DPAvoided != want.DPAvoided {
		t.Fatalf("rollup counters = %d/%d, want %d/%d",
			stats.PostingsScanned, stats.DPAvoided, want.PostingsScanned, want.DPAvoided)
	}
}

// TestOpenShardedBuildsNoArtifactOutsideItsShards: the backing corpus of a
// durable ShardedCorpus is the store's write path and nothing else — opening,
// adding and joining leave its artifact cache empty, every view and signature
// living in the shard that uses it — and the shards answer as one Corpus does.
func TestOpenShardedBuildsNoArtifactOutsideItsShards(t *testing.T) {
	ctx := context.Background()
	ts := chainForest(40)
	saved, err := NewCorpus(ts[:39])
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "store")
	if err := saved.SaveTo(dir); err != nil {
		t.Fatal(err)
	}
	sc, err := OpenSharded(dir, 4, WithStoreNoSync())
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if _, err := sc.Add(MustParseBracket(FormatBracket(ts[39]), sc.Labels())); err != nil {
		t.Fatal(err)
	}
	got, _, err := sc.SelfJoin(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if st := sc.backing.CacheStats(); st.Entries != 0 {
		t.Fatalf("backing corpus holds artifacts no query reads: %+v", st)
	}
	single, err := NewCorpus(ts)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := single.SelfJoin(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || !slices.Equal(got, want) {
		t.Fatalf("sharded store join: %d pairs, single corpus %d", len(got), len(want))
	}
}

// chainForest builds n chain trees of staggered depths over one table.
func chainForest(n int) []*Tree {
	lt := NewLabelTable()
	ts := make([]*Tree, n)
	for i := range ts {
		s := "{a"
		for d := 0; d < 2+i%5; d++ {
			s += "{a"
		}
		for d := 0; d < 2+i%5; d++ {
			s += "}"
		}
		s += "}"
		ts[i] = MustParseBracket(s, lt)
	}
	return ts
}

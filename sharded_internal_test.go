package treejoin

import (
	"context"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"treejoin/internal/sim"
)

// TestFoldStats: the multi-part rollup sums every counter and duration, merges
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

// TestFoldStatsIsExhaustive: every numeric field of Stats either sums across
// rounds or is named here as a property of the whole — so the next counter
// cannot be dropped from the rollup (or from the engine's task merge, which
// shares sim.AddCounters) silently.
func TestFoldStatsIsExhaustive(t *testing.T) {
	notSummed := map[string]bool{"Trees": true}
	var round sim.Stats
	rv := reflect.ValueOf(&round).Elem()
	for i := 0; i < rv.NumField(); i++ {
		if f := rv.Field(i); f.CanInt() {
			f.SetInt(1)
		}
	}
	var total sim.Stats
	foldStats(&total, &round)
	foldStats(&total, &round)
	tv := reflect.ValueOf(total)
	for i := 0; i < tv.NumField(); i++ {
		name := tv.Type().Field(i).Name
		if f := tv.Field(i); f.CanInt() && f.Int() != 2 && !notSummed[name] {
			t.Errorf("Stats.%s = %d after folding two rounds of 1: not summed, and not on the not-summed list", name, f.Int())
		}
	}
}

// TestShardedRollupMatchesRounds: the rollup a multi-part self join publishes
// is exactly the field-wise sum of its rounds — checked by comparing against
// the sum of each round run individually on the same pinned state — under the
// one plan the query made.
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
	q, err := sc.selfQuery(t.Context(), sc.state.Load(), 2, buildConfig([]Option{WithWorkers(1)}))
	if err != nil {
		t.Fatal(err)
	}
	want := &sim.Stats{Trees: len(ts), Plan: q.job.Plan}
	if len(q.rounds) != 6 {
		t.Fatalf("3 parts decompose into %d rounds, want 3 self + 3 cross", len(q.rounds))
	}
	for _, r := range q.rounds {
		part, err := q.run(t.Context(), r, 1, func(Pair) bool { return true })
		if err != nil {
			t.Fatal(err)
		}
		foldStats(want, part)
	}
	stats.CandTime, stats.VerifyTime, stats.CandWall, stats.PartitionTime, stats.IndexBuildTime = 0, 0, 0, 0, 0
	want.CandTime, want.VerifyTime, want.CandWall, want.PartitionTime, want.IndexBuildTime = 0, 0, 0, 0, 0
	for i := range want.Stages {
		stats.Stages[i].SampledNs, want.Stages[i].SampledNs = 0, 0
	}
	if !reflect.DeepEqual(stats, *want) || stats.Plan.Source == "" {
		t.Fatalf("rollup = %+v\nsum of its rounds = %+v", stats, *want)
	}
}

// TestOpenShardedBuildsNoArtifactOutsideItsShards: a store-backed 4-part
// corpus is the corpus that owns the store — after an Add and a SelfJoin it
// holds exactly the artifacts a NewCorpus over the same trees does, answers as
// it does, serves the store operations, and reopens under another part count
// to the same ids and pairs.
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
	ids, err := sc.Add(MustParseBracket(FormatBracket(ts[39]), sc.Labels()))
	if err != nil {
		t.Fatal(err)
	}
	sc.Remove(ids[0] - 1)
	got, _, err := sc.SelfJoin(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	single, err := NewCorpus(sc.Trees()) // the store's instances: equal trees share one
	if err != nil || single.Len() != 39 {
		t.Fatal(err)
	}
	want, _, err := single.SelfJoin(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || !slices.Equal(got, want) {
		t.Fatalf("4-part store join: %d pairs, one-part corpus %d", len(got), len(want))
	}
	if a, b := sc.CacheStats().Entries, single.CacheStats().Entries; a != b {
		t.Fatalf("the store-backed corpus holds %d artifacts, NewCorpus over the same trees %d", a, b)
	}
	if rep, err := sc.Scrub(); err != nil || rep.Segments == 0 {
		t.Fatalf("Scrub: %+v, %v", rep, err)
	}
	if err := sc.Compact(); err != nil {
		t.Fatal(err)
	}
	copyDir := filepath.Join(t.TempDir(), "copy")
	if err := sc.SaveTo(copyDir); err != nil {
		t.Fatal(err)
	}
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}
	for n, d := range map[int]string{1: dir, 3: copyDir} {
		re, err := OpenSharded(d, n)
		if err != nil {
			t.Fatal(err)
		}
		again, _, err := re.SelfJoin(ctx, 2)
		if err != nil || !slices.Equal(again, want) || re.NumShards() != n {
			t.Fatalf("reopened on %d parts: %d pairs (want %d), err %v", n, len(again), len(want), err)
		}
		for i := range re.Len() {
			if re.ID(i) != sc.ID(i) {
				t.Fatalf("reopened on %d parts: position %d has id %d, was %d", n, i, re.ID(i), sc.ID(i))
			}
		}
		re.Close()
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

package core

import (
	"context"
	"testing"

	"treejoin/internal/engine"
	"treejoin/internal/sim"
	"treejoin/internal/synth"
	"treejoin/internal/ted"
	"treejoin/internal/tree"
)

// TestOneVerifierArtifact runs every verification path core has — the self
// join, Search and an Incremental stream — over one artifact cache and
// accounts for every entry in it: one arena view per tree, and beyond that
// only the binary views and the δ-partitions of the thresholds used. Nothing
// else — no second per-tree verifier artifact — may exist.
func TestOneVerifierArtifact(t *testing.T) {
	ctx := context.Background()
	ts := synth.Synthetic(48, 5)
	cache := engine.NewCache()
	const tau = 2
	opts := Options{Tau: tau}
	ix := NewIndexCached(ts, opts, cache)
	job := partSJJob(opts, ix)
	job.Cache = cache
	if _, err := job.StreamSelf(ctx, ts, func(sim.Pair) bool { return true }); err != nil {
		t.Fatal(err)
	}
	inc := NewIncrementalCached(opts, cache)
	for _, q := range ts[:12] {
		if ms, err := ix.SearchCtx(ctx, q, nil); err != nil || len(ms) == 0 {
			t.Fatal("a collection tree did not find itself")
		}
		inc.Add(q)
	}
	distinct := make(map[*tree.Tree]bool) // the generator repeats exact duplicates by pointer
	for _, tr := range ts {
		distinct[tr] = true
	}
	if got := cache.KindEntries(engine.ArenaKey); got != len(distinct) {
		t.Fatalf("%d arena views, want one per distinct tree (%d)", got, len(distinct))
	}
	known := 0
	for _, kind := range []string{engine.ArenaKey, "lcrs", partitionCacheKey(Options{Tau: tau}.delta())} {
		if cache.KindEntries(kind) == 0 {
			t.Fatalf("no %q artifacts: the test no longer reaches that path", kind)
		}
		known += cache.KindEntries(kind)
	}
	if total := cache.Stats().Entries; total != known {
		t.Fatalf("cache holds %d artifacts, %d of unaccounted kinds", total, total-known)
	}
}

// TestSearchCtxCancelled: a cancelled context makes SearchCtx return ctx's
// error and no matches — when it was cancelled before the call, which stops
// the probe (Index.partners) before it visits a posting, and when a custom
// verifier cancels it on its first candidate.
func TestSearchCtxCancelled(t *testing.T) {
	ts := synth.Synthetic(60, 23)
	q := ts[5]
	calls := 0
	var cancel context.CancelFunc
	verify := func(a, b *tree.Tree, tau int) (int, bool) {
		calls++
		if cancel != nil {
			cancel()
		}
		return ted.DistanceBounded(a, b, tau)
	}
	ix := NewIndexCached(ts, Options{Tau: 2, Verifier: verify}, nil)
	if ms, err := ix.SearchCtx(context.Background(), q, nil); err != nil || len(ms) == 0 || calls < 2 {
		t.Fatalf("live search: %d matches, %d verifications, err %v", len(ms), calls, err)
	}

	ctx, stop := context.WithCancel(context.Background())
	stop()
	calls = 0
	if ms, err := ix.SearchCtx(ctx, q, nil); err != context.Canceled || ms != nil || calls != 0 {
		t.Fatalf("pre-cancelled: %v matches, %d verifications, err %v", ms, calls, err)
	}
	var st sim.Stats
	b := cachedBin(nil, q)
	if err := ix.partners(ctx, b, b.Size()+2, noTieLimit, &st, nil, func(int32) {}); err != context.Canceled || st.SubgraphProbes != 0 {
		t.Fatalf("pre-cancelled probe: err %v after %d postings", err, st.SubgraphProbes)
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	calls = 0
	if ms, err := ix.SearchCtx(ctx, q, nil); err != context.Canceled || ms != nil || calls == 0 {
		t.Fatalf("cancelled by the verifier: %v matches, %d verifications, err %v", ms, calls, err)
	}
}

func TestSearchTinyTreesAndEmpty(t *testing.T) {
	ctx, lt := context.Background(), tree.NewLabelTable()
	ix := NewIndexCached(nil, Options{Tau: 2}, nil)
	if got, err := ix.SearchCtx(ctx, tree.MustParseBracket("{a}", lt), nil); err != nil || len(got) != 0 {
		t.Fatalf("empty index returned %v, %v", got, err)
	}
	ts := []*tree.Tree{
		tree.MustParseBracket("{a}", lt),
		tree.MustParseBracket("{a{b}}", lt),
		tree.MustParseBracket("{x{y{z{w{v{u}}}}}}", lt),
	}
	ix = NewIndexCached(ts, Options{Tau: 1}, nil)
	got, err := ix.SearchCtx(ctx, tree.MustParseBracket("{a{c}}", lt), nil)
	if err != nil || len(got) != 2 || got[0].Pos != 0 || got[1].Pos != 1 {
		t.Fatalf("search = %v, %v", got, err)
	}
}

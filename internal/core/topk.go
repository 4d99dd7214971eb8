package core

import (
	"context"

	"treejoin/internal/engine"
	"treejoin/internal/sim"
	"treejoin/internal/tree"
)

// Threshold-free queries (an extension beyond the paper): the similarity
// join and search take a TED threshold τ, but two common workloads do not
// know one up front — "find the k most similar pairs in the collection" and
// "find the k nearest neighbours of this query". Both reduce to the
// thresholded forms by the expanding-threshold search of sim.ExpandTau.

// TopK returns the k closest pairs of the collection by TED, ties broken by
// (Dist, I, J). It runs PartSJ self-joins at geometrically increasing
// thresholds, starting from opts.Tau (minimum 1), until k pairs are within
// reach or every pair has been reported. Fewer than k pairs are returned
// only when the collection has fewer than k pairs overall. It panics on
// invalid options — the legacy contract; corpus-backed callers use TopKCtx.
func TopK(ts []*tree.Tree, k int, opts Options) []sim.Pair {
	if err := opts.validate(); err != nil {
		panic(err)
	}
	pairs, err := TopKCtx(context.Background(), ts, k, opts, 0, nil)
	if err != nil {
		panic(err)
	}
	return pairs
}

// TopKCtx is TopK under a context and an artifact cache: each expanding
// round runs the cancellable engine join (sharded when shards > 1), drawing
// per-tree signatures from cache. On cancellation it returns ctx's error
// together with the pairs the aborted round had found — honest partial
// output, not necessarily the global top k. Options must be valid.
func TopKCtx(ctx context.Context, ts []*tree.Tree, k int, opts Options, shards int, cache *engine.Cache) ([]sim.Pair, error) {
	if k <= 0 || len(ts) < 2 {
		return nil, ctx.Err()
	}
	if all := len(ts) * (len(ts) - 1) / 2; k > all {
		k = all
	}
	// τ never needs to exceed maxSize + secondMaxSize: deleting one tree
	// entirely and inserting the other is an edit script for any pair.
	var max1, max2 int
	for _, t := range ts {
		switch s := t.Size(); {
		case s > max1:
			max1, max2 = s, max1
		case s > max2:
			max2 = s
		}
	}
	return sim.ExpandTau(opts.Tau, max1+max2, k, sim.ComparePairsByDist, func(tau int) ([]sim.Pair, error) {
		o := opts
		o.Tau = tau
		job := o.Job(shards, nil)
		job.Cache = cache
		var pairs []sim.Pair
		_, err := job.StreamSelf(ctx, ts, func(p sim.Pair) bool {
			pairs = append(pairs, p)
			return true
		})
		return pairs, err
	})
}

// DefaultIndexCacheCap is the default bound on the per-threshold index cache
// behind KNN (and a corpus's Search): one full PartSJ index is retained per
// cached threshold, so the cap trades rebuild time against memory. The
// expanding-threshold search visits geometrically spaced thresholds — at
// most ⌊log₂(tauCap)⌋+2 of them per query, where tauCap = max tree size +
// query size — so the default covers a full worst-case sweep for
// tree-plus-query sizes up to ~16K nodes. A smaller cap makes a sweep
// longer than the cap cycle the LRU (each query rebuilding every index),
// which is the caveat to weigh when lowering it via WithIndexCacheCap.
const DefaultIndexCacheCap = 16

// KNN answers k-nearest-neighbour queries over a fixed collection. Each
// distinct threshold the expanding search visits builds one Index; a small
// LRU keeps the most recently used of them (an unbounded cache would retain
// one full PartSJ index per threshold ever visited), so a query workload
// settles into reusing a handful. Nearest is safe for concurrent use.
type KNN struct {
	ts        []*tree.Tree
	opts      Options
	tauCap    int
	cache     *engine.IndexLRU[int, *Index]
	artifacts *engine.Cache
}

// NewKNN prepares a k-NN searcher over ts. opts.Tau sets the first threshold
// tried (minimum 1); the remaining options configure the underlying indexes
// and verifier as in NewIndex. It panics on invalid options — the legacy
// contract; corpus-backed callers use NewKNNCached.
func NewKNN(ts []*tree.Tree, opts Options) *KNN {
	if err := opts.validate(); err != nil {
		panic(err)
	}
	return NewKNNCached(ts, opts, nil, DefaultIndexCacheCap)
}

// NewKNNCached is NewKNN drawing per-tree artifacts from cache (nil: compute
// locally) and bounding the per-threshold index cache at capacity (≥ 1;
// values below 1 are raised to 1). Options must be valid.
func NewKNNCached(ts []*tree.Tree, opts Options, cache *engine.Cache, capacity int) *KNN {
	var max1 int
	for _, t := range ts {
		if s := t.Size(); s > max1 {
			max1 = s
		}
	}
	return &KNN{ts: ts, opts: opts, tauCap: max1, cache: engine.NewIndexLRU[int, *Index](capacity), artifacts: cache}
}

// Len returns the collection size.
func (x *KNN) Len() int { return len(x.ts) }

// Tree returns the i-th collection tree.
func (x *KNN) Tree(i int) *tree.Tree { return x.ts[i] }

// CachedIndexes returns the number of per-threshold indexes currently
// retained (≤ the configured capacity); Builds how many were ever built and
// Evictions how many the LRU bound has discarded.
func (x *KNN) CachedIndexes() int {
	n, _, _ := x.cache.Counts()
	return n
}

func (x *KNN) Builds() int64 {
	_, n, _ := x.cache.Counts()
	return n
}

func (x *KNN) Evictions() int64 {
	_, _, n := x.cache.Counts()
	return n
}

// IndexAt returns the index for threshold tau, building and caching it on
// first use, on workers goroutines; built reports that this call paid for
// the build. The build runs once per cached threshold: callers that arrive
// while it is under way wait for it, or for their own context, whichever ends
// first.
func (x *KNN) IndexAt(ctx context.Context, tau, workers int) (ix *Index, built bool, err error) {
	return x.cache.Get(ctx, tau, func() *Index {
		o := x.opts
		o.Tau, o.Workers = tau, workers
		return NewIndexCached(x.ts, o, x.artifacts)
	})
}

// Nearest returns the k collection trees closest to q by TED, ordered by
// (Dist, Pos), verifying as the searcher's options say. Fewer than k matches
// are returned only when the collection holds fewer than k trees.
func (x *KNN) Nearest(q *tree.Tree, k int) []Match {
	ms, _ := x.NearestCtx(context.Background(), q, k)
	return ms
}

// NearestCtx is Nearest under a context: cancellation aborts the expanding
// search promptly and returns ctx's error with nil matches.
func (x *KNN) NearestCtx(ctx context.Context, q *tree.Tree, k int) ([]Match, error) {
	if k <= 0 || len(x.ts) == 0 {
		return nil, ctx.Err()
	}
	if k > len(x.ts) {
		k = len(x.ts)
	}
	return sim.ExpandTau(x.opts.Tau, x.tauCap+q.Size(), k, CompareMatchesByDist, func(tau int) ([]Match, error) {
		// Check before each round: IndexAt may pay a full (uncancellable)
		// index build, so don't start one the caller no longer wants.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ix, _, err := x.IndexAt(ctx, tau, x.opts.Workers)
		if err != nil {
			return nil, err
		}
		return ix.SearchCtx(ctx, q)
	})
}

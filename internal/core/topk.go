package core

import (
	"context"
	"sync"

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

// indexLRU is a small least-recently-used cache of per-threshold search
// indexes. Capacities are tiny (single digits), so recency is tracked with a
// plain slice — the O(cap) bookkeeping is noise next to an index build.
type indexLRU struct {
	mu        sync.Mutex
	cap       int
	order     []int // thresholds, most recently used first
	m         map[int]*indexEntry
	builds    int64
	evictions int64
}

// indexEntry is one threshold's slot: whoever created it builds the index and
// closes done; everyone else waits on done, so an index is built once however
// many callers ask for it at the same moment.
type indexEntry struct {
	done chan struct{}
	ix   *Index
}

func newIndexLRU(capacity int) *indexLRU {
	if capacity < 1 {
		capacity = 1
	}
	return &indexLRU{cap: capacity, m: make(map[int]*indexEntry)}
}

// entry returns tau's slot, refreshing its recency; created reports that the
// slot is new — the caller must build its index — after evicting the least
// recently used slot of a full cache.
func (l *indexLRU) entry(tau int) (e *indexEntry, created bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if e := l.m[tau]; e != nil {
		l.touch(tau)
		return e, false
	}
	if len(l.order) >= l.cap {
		last := l.order[len(l.order)-1]
		l.order = l.order[:len(l.order)-1]
		delete(l.m, last)
		l.evictions++
	}
	e = &indexEntry{done: make(chan struct{})}
	l.m[tau] = e
	l.order = append([]int{tau}, l.order...)
	l.builds++
	return e, true
}

// touch moves tau to the front of the recency order (must hold l.mu).
func (l *indexLRU) touch(tau int) {
	for i, v := range l.order {
		if v == tau {
			copy(l.order[1:i+1], l.order[:i])
			l.order[0] = tau
			return
		}
	}
}

// KNN answers k-nearest-neighbour queries over a fixed collection. Each
// distinct threshold the expanding search visits builds one Index; a small
// LRU keeps the most recently used of them (an unbounded cache would retain
// one full PartSJ index per threshold ever visited), so a query workload
// settles into reusing a handful. Nearest is safe for concurrent use.
type KNN struct {
	ts        []*tree.Tree
	opts      Options
	tauCap    int
	cache     *indexLRU
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
	return &KNN{ts: ts, opts: opts, tauCap: max1, cache: newIndexLRU(capacity), artifacts: cache}
}

// Len returns the collection size.
func (x *KNN) Len() int { return len(x.ts) }

// Tree returns the i-th collection tree.
func (x *KNN) Tree(i int) *tree.Tree { return x.ts[i] }

// CachedIndexes returns the number of per-threshold indexes currently
// retained (≤ the configured capacity); Builds how many were ever built and
// Evictions how many the LRU bound has discarded.
func (x *KNN) CachedIndexes() int {
	return int(x.counter(func(l *indexLRU) int64 { return int64(len(l.m)) }))
}
func (x *KNN) Builds() int64    { return x.counter(func(l *indexLRU) int64 { return l.builds }) }
func (x *KNN) Evictions() int64 { return x.counter(func(l *indexLRU) int64 { return l.evictions }) }

func (x *KNN) counter(read func(*indexLRU) int64) int64 {
	x.cache.mu.Lock()
	defer x.cache.mu.Unlock()
	return read(x.cache)
}

// IndexAt returns the index for threshold tau, building and caching it on
// first use, on workers goroutines; built reports that this call paid for
// the build. The build runs once per cached threshold: callers that arrive
// while it is under way wait for it, or for their own context, whichever ends
// first.
func (x *KNN) IndexAt(ctx context.Context, tau, workers int) (ix *Index, built bool, err error) {
	e, created := x.cache.entry(tau)
	if created {
		defer close(e.done)
		o := x.opts
		o.Tau, o.Workers = tau, workers
		e.ix = NewIndexCached(x.ts, o, x.artifacts)
		return e.ix, true, nil
	}
	select {
	case <-e.done:
		return e.ix, false, nil
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
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

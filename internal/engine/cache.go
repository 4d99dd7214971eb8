package engine

import (
	"sync"

	"treejoin/internal/tree"
)

// Cache is the per-corpus artifact store: every τ-independent per-tree
// signature a filter or source computes (traversal strings, histograms,
// Euler strings, gram bags, binary views, δ-partitions) is keyed here by
// (artifact kind, tree identity) so a later join over the same trees — at a
// different threshold, with a different method, or against another
// collection — reuses it instead of recomputing.
//
// Artifacts are keyed by tree *pointer*: trees are immutable after
// construction, so pointer identity is value identity, and a cross join
// mixing two corpora hits on exactly the trees the two sides share. Keys of
// τ-dependent artifacts must encode the parameter (e.g. "partsj/delta=7"), so
// a changed threshold misses instead of aliasing.
//
// A Cache is safe for concurrent use. Builds run outside the lock, so two
// racing tasks may compute the same artifact; both results are identical
// (builders are deterministic) and only one is retained.
type Cache struct {
	mu     sync.Mutex
	m      map[string]map[*tree.Tree]any
	hits   int64
	misses int64

	// route, when non-nil, makes this cache a pure router: every per-tree
	// operation is delegated to route(t), and nothing is stored locally. A
	// cross join of two corpora routes each tree's artifacts to the cache
	// of the corpus that owns it, so neither corpus retains (and pins) the
	// other's trees.
	route func(t *tree.Tree) *Cache
}

// NewCache returns an empty artifact cache.
func NewCache() *Cache {
	return &Cache{m: make(map[string]map[*tree.Tree]any)}
}

// RoutedCache returns a cache that delegates every per-tree operation to
// route(t). Stats of a routed cache are always zero — read the underlying
// caches instead.
func RoutedCache(route func(t *tree.Tree) *Cache) *Cache {
	return &Cache{route: route}
}

// CacheStats is a snapshot of a cache's effectiveness counters. A warm
// corpus shows Misses frozen while Hits grows: zero per-tree signature
// recomputation.
type CacheStats struct {
	Hits    int64 // artifact lookups served from the cache
	Misses  int64 // lookups that had to compute the artifact
	Entries int   // artifacts currently stored
}

// Stats returns a snapshot of the hit/miss counters and the entry count.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st := CacheStats{Hits: c.hits, Misses: c.misses}
	for _, byTree := range c.m {
		st.Entries += len(byTree)
	}
	return st
}

// KindEntries returns how many trees currently have an artifact of the given
// kind — zero for a routed cache, which stores nothing locally. A dynamic
// corpus reads it to decide whether to keep an artifact family warm on Add:
// a kind that is populated has been paid for by a join, so maintaining it
// beats letting the next join rebuild it for every tree.
func (c *Cache) KindEntries(key string) int {
	if c == nil || c.route != nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m[key])
}

// Lookup returns the artifact cached for (key, t). A miss is counted even
// when the caller never stores a value back.
func (c *Cache) Lookup(key string, t *tree.Tree) (any, bool) {
	if c == nil {
		return nil, false
	}
	if c.route != nil {
		return c.route(t).Lookup(key, t)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[key][t]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return v, ok
}

// Store records the artifact for (key, t), overwriting any previous value.
func (c *Cache) Store(key string, t *tree.Tree, v any) {
	if c == nil {
		return
	}
	if c.route != nil {
		c.route(t).Store(key, t, v)
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	byTree := c.m[key]
	if byTree == nil {
		byTree = make(map[*tree.Tree]any)
		c.m[key] = byTree
	}
	byTree[t] = v
}

// Evict removes every artifact cached for the given trees, across all
// artifact kinds, and returns the number of entries dropped. A dynamic
// corpus calls it when trees are removed, so the cache's memory tracks the
// live collection instead of everything ever joined; re-adding the same
// tree later simply recomputes (and re-caches) its signatures. Evicting
// from a routed cache delegates per tree, exactly like Lookup and Store.
func (c *Cache) Evict(ts ...*tree.Tree) int {
	if c == nil {
		return 0
	}
	if c.route != nil {
		n := 0
		for _, t := range ts {
			n += c.route(t).Evict(t)
		}
		return n
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, t := range ts {
		for _, byTree := range c.m {
			if _, ok := byTree[t]; ok {
				delete(byTree, t)
				n++
			}
		}
	}
	return n
}

// Cached returns build(t) for every tree of ts, in order, calling build once
// per tree missing under key (a racing call may too, see Cache), on at most
// workers goroutines. With a nil cache it degrades to plain computation.
func Cached[T any](c *Cache, key string, ts []*tree.Tree, workers int, build func(*tree.Tree) T) []T {
	return cachedBatch(c, key, ts, workers, func(ts []*tree.Tree) []T {
		out := make([]T, len(ts))
		for i, t := range ts {
			out[i] = build(t)
		}
		return out
	})
}

// cachedBatch is Cached for artifacts built a batch at a time: the hits are
// read and the misses noted under one lock acquisition, the missing trees are
// cut into at most workers contiguous runs, each built by one build call on
// its own goroutine outside the lock, and the results stored under a second
// acquisition. A routed cache delegates per tree (the trees may span several
// caches, so there is no single lock to bulk under), and stores through the
// route as it is then: a tree removed while the batch was building must land
// in the overflow, not back in the cache it was just evicted from. A nil
// cache stands for a fresh one.
func cachedBatch[T any](c *Cache, key string, ts []*tree.Tree, workers int, build func([]*tree.Tree) []T) []T {
	if c == nil {
		c = NewCache()
	}
	out := make([]T, len(ts))
	var missing []int
	if c.route == nil {
		c.mu.Lock()
		byTree := c.m[key]
		for i, t := range ts {
			if v, ok := byTree[t]; ok {
				c.hits++
				out[i] = v.(T)
			} else {
				c.misses++
				missing = append(missing, i)
			}
		}
		c.mu.Unlock()
	} else {
		for i, t := range ts {
			if v, ok := c.Lookup(key, t); ok {
				out[i] = v.(T)
			} else {
				missing = append(missing, i)
			}
		}
	}
	if len(missing) == 0 {
		return out
	}
	mts := make([]*tree.Tree, len(missing))
	for k, i := range missing {
		mts[k] = ts[i]
	}
	ForRuns(len(mts), workers, func(_, lo, hi int) {
		for k, v := range build(mts[lo:hi]) {
			out[missing[lo+k]] = v
		}
	})
	if c.route != nil {
		for _, i := range missing {
			c.Store(key, ts[i], out[i])
		}
		return out
	}
	c.mu.Lock()
	byTree := c.m[key]
	if byTree == nil {
		byTree = make(map[*tree.Tree]any)
		c.m[key] = byTree
	}
	for _, i := range missing {
		byTree[ts[i]] = out[i]
	}
	c.mu.Unlock()
	return out
}

// ForRuns calls run(w, lo, hi) on the w-th of at most workers contiguous runs
// cutting [0, n), the last (a small input's only one) on the caller's
// goroutine, and waits. One (n, workers) cuts the same runs every time.
func ForRuns(n, workers int, run func(w, lo, hi int)) {
	workers = max(1, min(workers, n))
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := range workers - 1 {
		go func() {
			defer wg.Done()
			run(w, w*n/workers, (w+1)*n/workers)
		}()
	}
	run(workers-1, (workers-1)*n/workers, n)
	wg.Wait()
}

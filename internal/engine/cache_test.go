package engine_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"treejoin/internal/engine"
	"treejoin/internal/synth"
	"treejoin/internal/tree"
)

// TestCachedWorkers: at every worker count, Cached returns build(t) in input
// order, calls build exactly once for each tree the cache misses and never
// for a hit, and leaves the same hit and miss counts as a one-worker call —
// through a plain cache, a routed one, and none.
func TestCachedWorkers(t *testing.T) {
	// Distinct trees: the generator may hand out one tree twice, and each
	// occurrence of a missing tree is a build of its own.
	var ts []*tree.Tree
	for _, tr := range synth.Synthetic(60, 3) {
		if !slices.Contains(ts, tr) && len(ts) < 50 {
			ts = append(ts, tr)
		}
	}
	const warm = 20 // ts[:warm] are cached before the call
	for _, kind := range []string{"plain", "routed", "nil"} {
		var want []engine.CacheStats
		for _, workers := range []int{1, 2, 3, 8, 64} {
			label := fmt.Sprintf("%s cache, %d workers", kind, workers)
			// The routed cache sends even-indexed trees to one cache and the
			// rest to another; stats are read from the caches routed to.
			caches := []*engine.Cache{engine.NewCache(), engine.NewCache()}
			var c *engine.Cache
			switch kind {
			case "plain":
				c = caches[0]
			case "routed":
				owner := map[*tree.Tree]*engine.Cache{}
				for i, tr := range ts {
					owner[tr] = caches[i%2]
				}
				c = engine.RoutedCache(func(tr *tree.Tree) *engine.Cache { return owner[tr] })
			}
			var mu sync.Mutex
			calls := map[*tree.Tree]int{}
			build := func(tr *tree.Tree) *tree.Tree {
				mu.Lock()
				calls[tr]++
				mu.Unlock()
				return tr
			}
			engine.Cached(c, "test/kind", ts[:warm], 1, build)
			clear(calls)

			got := engine.Cached(c, "test/kind", ts, workers, build)
			if len(got) != len(ts) {
				t.Fatalf("%s: %d artifacts for %d trees", label, len(got), len(ts))
			}
			for i, tr := range ts {
				if got[i] != tr {
					t.Fatalf("%s: artifact %d is another tree's", label, i)
				}
				wantCalls := 1
				if i < warm && c != nil {
					wantCalls = 0
				}
				if calls[tr] != wantCalls {
					t.Fatalf("%s: tree %d built %d times, want %d", label, i, calls[tr], wantCalls)
				}
			}
			stats := []engine.CacheStats{caches[0].Stats(), caches[1].Stats()}
			if want == nil {
				if kind == "plain" && stats[0] != (engine.CacheStats{Hits: warm, Misses: int64(len(ts)), Entries: len(ts)}) {
					t.Fatalf("%s: cache stats %+v", label, stats[0])
				}
				want = stats
			} else if !slices.Equal(stats, want) {
				t.Fatalf("%s: cache stats %+v, one worker's %+v", label, stats, want)
			}
		}
	}
}

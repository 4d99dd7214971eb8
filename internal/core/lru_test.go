package core_test

import (
	"context"
	"slices"
	"testing"

	"treejoin/internal/core"
	"treejoin/internal/engine"
	"treejoin/internal/synth"
)

// TestKNNIndexCacheEviction: a per-threshold index cache — the
// engine.IndexLRU of core.Index a corpus part keeps, and the expanding search
// of KNN fills — is bounded: it never holds more than its capacity, evicts
// least-recently-used entries, and eviction never changes query results.
func TestKNNIndexCacheEviction(t *testing.T) {
	ts := synth.Synthetic(30, 19)
	artifacts := engine.NewCache()
	lru := engine.NewIndexLRU[int, *core.Index](2)
	indexAt := func(tau int) *core.Index {
		ix, _, err := lru.Get(context.Background(), tau, func() *core.Index {
			return core.NewIndexCached(ts, core.Options{Tau: tau, Workers: 1}, artifacts)
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
			want := core.NewIndexCached(ts, core.Options{Tau: tau}, nil).Search(q)
			if got := indexAt(tau).Search(q); !slices.Equal(got, want) {
				t.Fatalf("τ=%d: search through the cycling cache %v, fresh index %v", tau, got, want)
			}
		}
	}
}

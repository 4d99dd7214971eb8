package core_test

import (
	"context"
	"testing"

	"treejoin/internal/core"
	"treejoin/internal/engine"
	"treejoin/internal/synth"
)

// TestKNNIndexCacheEviction: the per-threshold index cache is bounded — it
// never holds more than its capacity, evicts least-recently-used entries,
// and eviction never changes query results.
func TestKNNIndexCacheEviction(t *testing.T) {
	ts := synth.Synthetic(30, 19)
	knn := core.NewKNNCached(ts, core.Options{Tau: 1}, engine.NewCache(), 2)
	indexAt := func(tau int) *core.Index {
		ix, _, err := knn.IndexAt(context.Background(), tau, 1)
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}

	for _, tau := range []int{1, 2, 4, 8} {
		indexAt(tau)
	}
	if n := knn.CachedIndexes(); n > 2 {
		t.Fatalf("cache holds %d indexes, cap 2", n)
	}
	if ev := knn.Evictions(); ev < 2 {
		t.Fatalf("evictions = %d, want ≥ 2 after 4 distinct thresholds", ev)
	}

	// LRU order: touching 4 then inserting 16 must evict 8, not 4.
	indexAt(4)
	ix4 := indexAt(4) // cached: same pointer both times
	if indexAt(4) != ix4 {
		t.Fatal("repeated IndexAt(4) rebuilt a cached index")
	}
	ev := knn.Evictions()
	indexAt(16)
	if knn.Evictions() != ev+1 {
		t.Fatalf("inserting past cap evicted %d entries, want 1", knn.Evictions()-ev)
	}
	if indexAt(4) != ix4 {
		t.Fatal("most-recently-used index 4 was evicted instead of 8")
	}

	// Results are identical with and without eviction pressure.
	unbounded := core.NewKNNCached(ts, core.Options{Tau: 1}, nil, 64)
	for _, q := range ts[:5] {
		got := knn.Nearest(q, 3)
		want := unbounded.Nearest(q, 3)
		if len(got) != len(want) {
			t.Fatalf("nearest: %d matches, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("nearest[%d] = %v, want %v", i, got[i], want[i])
			}
		}
	}
}

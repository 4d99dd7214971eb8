package treejoin_test

import (
	"context"
	"strings"
	"testing"

	"treejoin"
	"treejoin/internal/synth"
)

var signatureMethods = []treejoin.Method{
	treejoin.MethodSTR, treejoin.MethodSET, treejoin.MethodHistogram,
	treejoin.MethodEulerString, treejoin.MethodPQGram,
}

// TestTokenIndexAutoFallback: corpora below the cutoff — and thresholds at
// the largest tree's size — must run the sorted loop automatically, and a
// regular workload the token index, all visible in Stats.Source.
func TestTokenIndexAutoFallback(t *testing.T) {
	small := synth.Synthetic(20, 9)
	_, st := selfJoin(t, small, 1, treejoin.WithMethod(treejoin.MethodSTR))
	if st.Source != "sorted-loop" {
		t.Fatalf("small corpus: source = %q, want sorted-loop", st.Source)
	}

	big := synth.Synthetic(80, 9)
	maxSize := 0
	for _, tr := range big {
		if tr.Size() > maxSize {
			maxSize = tr.Size()
		}
	}
	_, st = selfJoin(t, big, maxSize, treejoin.WithMethod(treejoin.MethodHistogram))
	if st.Source != "sorted-loop" {
		t.Fatalf("τ=max size: source = %q, want sorted-loop", st.Source)
	}

	// Bag-swallowing threshold: labels have C = 2 and bag = tree size, so at
	// τ = ⌈maxSize/2⌉ even the largest bag is light and the index would
	// degenerate to the light-list scan — must fall back.
	_, st = selfJoin(t, big, (maxSize+1)/2, treejoin.WithMethod(treejoin.MethodHistogram))
	if st.Source != "sorted-loop" {
		t.Fatalf("bag-swallowing τ: source = %q, want sorted-loop", st.Source)
	}

	_, st = selfJoin(t, big, 2, treejoin.WithMethod(treejoin.MethodPQGram))
	if !strings.HasPrefix(st.Source, "token-index(") {
		t.Fatalf("regular corpus: source = %q, want token-index(...)", st.Source)
	}

	// PartSJ and BruteForce never use the token index.
	_, st = selfJoin(t, big, 1)
	if st.Source != "partsj" {
		t.Fatalf("PartSJ source = %q", st.Source)
	}
	_, st = selfJoin(t, big, 1, treejoin.WithMethod(treejoin.MethodBruteForce))
	if st.Source != "sorted-loop" {
		t.Fatalf("BruteForce source = %q", st.Source)
	}
}

// TestTokenIndexWarmCorpus: a corpus-backed join tokenises each tree exactly
// once — a second join at a different threshold reuses every cached token
// bag (misses frozen, hits growing), the warm-reuse contract the index
// benchmarks rely on.
func TestTokenIndexWarmCorpus(t *testing.T) {
	ctx := context.Background()
	ts := synth.Synthetic(64, 13)
	for _, m := range signatureMethods {
		cp := mustCorpus(t, ts)
		_, st, err := cp.SelfJoin(ctx, 1, treejoin.WithMethod(m))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(st.Source, "token-index(") {
			t.Fatalf("%v: cold join ran %q, not the token index", m, st.Source)
		}
		cold := cp.CacheStats()
		if cold.Misses == 0 {
			t.Fatalf("%v: cold join recorded no cache misses", m)
		}
		if _, _, err := cp.SelfJoin(ctx, 3, treejoin.WithMethod(m)); err != nil {
			t.Fatal(err)
		}
		warm := cp.CacheStats()
		if warm.Misses != cold.Misses {
			t.Errorf("%v: warm join at a new τ recomputed %d artifacts (token bags must be τ-independent)",
				m, warm.Misses-cold.Misses)
		}
		if warm.Hits <= cold.Hits {
			t.Errorf("%v: warm join did not hit the cache (hits %d -> %d)", m, cold.Hits, warm.Hits)
		}
	}
}

// TestCandWall: the candidate stage records a positive wall clock alongside
// the summed task clocks, for both loop and index sources.
func TestCandWall(t *testing.T) {
	ts := synth.Synthetic(64, 21)
	for _, opts := range [][]treejoin.Option{
		{treejoin.WithMethod(treejoin.MethodSTR)},
		{treejoin.WithMethod(treejoin.MethodBruteForce), treejoin.WithPrefilter(treejoin.PrefilterSTR), treejoin.WithWorkers(4)},
	} {
		_, st := selfJoin(t, ts, 2, opts...)
		if st.CandWall <= 0 {
			t.Fatalf("CandWall = %v (stats %+v)", st.CandWall, st)
		}
	}
}

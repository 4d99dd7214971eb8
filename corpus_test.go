// Tests for the Corpus API: construction validation, error returns for
// invalid input, result equality with brute force across methods and
// prefilter chains, streaming-versus-slice equality, prompt
// cancellation without goroutine leaks, and warm-cache reuse (a second join
// at a different threshold recomputes no per-tree signature).
package treejoin_test

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"testing"
	"time"

	"treejoin"
	"treejoin/internal/sim"
	"treejoin/internal/synth"
)

func mustCorpus(t testing.TB, ts []*treejoin.Tree) *treejoin.Corpus {
	t.Helper()
	cp, err := treejoin.NewCorpus(ts)
	if err != nil {
		t.Fatalf("NewCorpus: %v", err)
	}
	return cp
}

// selfJoin is the one-shot self join of ts: a fresh corpus, joined once.
func selfJoin(tb testing.TB, ts []*treejoin.Tree, tau int, opts ...treejoin.Option) ([]treejoin.Pair, treejoin.Stats) {
	tb.Helper()
	cp, err := treejoin.NewCorpus(ts)
	if err != nil {
		tb.Fatal(err)
	}
	pairs, st, err := cp.SelfJoin(context.Background(), tau, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	return pairs, st
}

// crossJoin is selfJoin for the cross join of a against b.
func crossJoin(tb testing.TB, a, b []*treejoin.Tree, tau int, opts ...treejoin.Option) ([]treejoin.Pair, treejoin.Stats) {
	tb.Helper()
	ca, err := treejoin.NewCorpus(a)
	if err != nil {
		tb.Fatal(err)
	}
	cb, err := treejoin.NewCorpus(b)
	if err != nil {
		tb.Fatal(err)
	}
	pairs, st, err := ca.Join(context.Background(), cb, tau, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	return pairs, st
}

func TestNewCorpusValidation(t *testing.T) {
	lt := treejoin.NewLabelTable()
	a := treejoin.MustParseBracket("{a{b}}", lt)
	b := treejoin.MustParseBracket("{a{c}}", lt)

	if _, err := treejoin.NewCorpus([]*treejoin.Tree{a, nil, b}); !errors.Is(err, treejoin.ErrNilTree) {
		t.Fatalf("nil tree: err = %v, want ErrNilTree", err)
	}
	other := treejoin.MustParseBracket("{a{b}}", treejoin.NewLabelTable())
	if _, err := treejoin.NewCorpus([]*treejoin.Tree{a, other}); !errors.Is(err, treejoin.ErrLabelTable) {
		t.Fatalf("mixed tables: err = %v, want ErrLabelTable", err)
	}
	empty, err := treejoin.NewCorpus(nil)
	if err != nil {
		t.Fatalf("empty corpus: %v", err)
	}
	pairs, _, err := empty.SelfJoin(context.Background(), 1)
	if err != nil || len(pairs) != 0 {
		t.Fatalf("empty corpus join: pairs=%v err=%v", pairs, err)
	}

	// The corpus copies the slice: mutating the argument afterwards must not
	// change the corpus.
	src := []*treejoin.Tree{a, b}
	cp := mustCorpus(t, src)
	src[0] = nil
	if cp.Len() != 2 || cp.Tree(0) == nil {
		t.Fatal("corpus aliases the caller's slice")
	}
}

func TestCorpusErrorsWhereLegacyPanics(t *testing.T) {
	ctx := context.Background()
	lt := treejoin.NewLabelTable()
	ts := []*treejoin.Tree{
		treejoin.MustParseBracket("{a{b}}", lt),
		treejoin.MustParseBracket("{a{c}}", lt),
	}
	cp := mustCorpus(t, ts)

	if _, _, err := cp.SelfJoin(ctx, -1); !errors.Is(err, treejoin.ErrNegativeThreshold) {
		t.Errorf("negative tau: err = %v, want ErrNegativeThreshold", err)
	}
	if _, err := cp.SelfJoinSeq(ctx, -3); !errors.Is(err, treejoin.ErrNegativeThreshold) {
		t.Errorf("negative tau (seq): err = %v, want ErrNegativeThreshold", err)
	}
	if _, _, err := cp.SelfJoin(ctx, 1, treejoin.WithMethod(treejoin.Method(99))); !errors.Is(err, treejoin.ErrUnknownMethod) {
		t.Errorf("unknown method: err = %v, want ErrUnknownMethod", err)
	}
	if _, _, err := cp.SelfJoin(ctx, 1, treejoin.WithPrefilter(treejoin.Prefilter(42))); !errors.Is(err, treejoin.ErrUnknownPrefilter) {
		t.Errorf("unknown prefilter: err = %v, want ErrUnknownPrefilter", err)
	}
	if _, _, err := cp.Join(ctx, cp, -2); !errors.Is(err, treejoin.ErrNegativeThreshold) {
		t.Errorf("negative cross tau: err = %v, want ErrNegativeThreshold", err)
	}
	if _, _, err := cp.Join(ctx, nil, 1); !errors.Is(err, treejoin.ErrNilCorpus) {
		t.Errorf("nil other: err = %v, want ErrNilCorpus", err)
	}
	foreign := mustCorpus(t, []*treejoin.Tree{treejoin.MustParseBracket("{a}", treejoin.NewLabelTable())})
	if _, _, err := cp.Join(ctx, foreign, 1); !errors.Is(err, treejoin.ErrLabelTable) {
		t.Errorf("cross tables: err = %v, want ErrLabelTable", err)
	}
	if _, err := cp.Search(ctx, nil, 1); !errors.Is(err, treejoin.ErrNilTree) {
		t.Errorf("nil query: err = %v, want ErrNilTree", err)
	}
	q := treejoin.MustParseBracket("{a{b}}", treejoin.NewLabelTable())
	if _, err := cp.Search(ctx, q, 1); !errors.Is(err, treejoin.ErrLabelTable) {
		t.Errorf("foreign query: err = %v, want ErrLabelTable", err)
	}
	if _, err := cp.Search(ctx, ts[0], -1); !errors.Is(err, treejoin.ErrNegativeThreshold) {
		t.Errorf("negative search tau: err = %v, want ErrNegativeThreshold", err)
	}
	if _, err := cp.Search(ctx, ts[0], 1, treejoin.WithMethod(treejoin.MethodSTR)); !errors.Is(err, treejoin.ErrOptionConflict) {
		t.Errorf("search with method: err = %v, want ErrOptionConflict", err)
	}
	if _, err := cp.TopK(ctx, 1, treejoin.WithPrefilter(treejoin.PrefilterHistogram)); !errors.Is(err, treejoin.ErrOptionConflict) {
		t.Errorf("topk with prefilter: err = %v, want ErrOptionConflict", err)
	}
	if _, err := cp.KNN(ctx, ts[0], 1, treejoin.WithMethod(treejoin.MethodSET)); !errors.Is(err, treejoin.ErrOptionConflict) {
		t.Errorf("knn with method: err = %v, want ErrOptionConflict", err)
	}
	if _, err := cp.Incremental(-1); !errors.Is(err, treejoin.ErrNegativeThreshold) {
		t.Errorf("incremental negative tau: err = %v, want ErrNegativeThreshold", err)
	}
}

// TestCorpusMatchesLegacy: joins as slices and as sequences, self and cross,
// hold to the model (a history); and cross-join artifacts route to the corpus
// that owns each tree: the other side's cache warms too, and a repeat cross
// join recomputes no signatures on either side.
func TestCorpusMatchesLegacy(t *testing.T) {
	runHistories(t, 11, 1, mix{steps: 20, weights: [numKinds]int{opRemove: 1, opSelfJoin: 2, opJoin: 2}})
	ts := synth.Synthetic(60, 11)
	ca, cb := mustCorpus(t, ts[:25]), mustCorpus(t, ts[25:])
	join := func() {
		if _, _, err := ca.Join(context.Background(), cb, 2, treejoin.WithMethod(treejoin.MethodHistogram)); err != nil {
			t.Fatal(err)
		}
	}
	join()
	if st := cb.CacheStats(); st.Entries == 0 {
		t.Error("cross join left the other corpus's cache cold")
	}
	missesA, missesB := ca.CacheStats().Misses, cb.CacheStats().Misses
	join()
	if ca.CacheStats().Misses != missesA || cb.CacheStats().Misses != missesB {
		t.Error("repeat cross join recomputed signatures")
	}
}

// TestCorpusWarmCache: after the first join, a second join at a *different*
// threshold performs zero per-tree signature recomputation for every
// signature-based method, and a repeated PartSJ join at the same threshold
// recomputes nothing at all.
func TestCorpusWarmCache(t *testing.T) {
	ctx := context.Background()
	ts := synth.Synthetic(40, 7)

	sigMethods := []treejoin.Method{
		treejoin.MethodSTR, treejoin.MethodSET, treejoin.MethodHistogram,
		treejoin.MethodEulerString, treejoin.MethodPQGram,
	}
	for _, m := range sigMethods {
		cp := mustCorpus(t, ts)
		if _, _, err := cp.SelfJoin(ctx, 1, treejoin.WithMethod(m)); err != nil {
			t.Fatal(err)
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
			t.Errorf("%v: second join at new tau recomputed %d signatures", m, warm.Misses-cold.Misses)
		}
		if warm.Hits <= cold.Hits {
			t.Errorf("%v: second join did not hit the cache (hits %d -> %d)", m, cold.Hits, warm.Hits)
		}
	}

	// PartSJ: same threshold → views and partitions both reused; different
	// threshold → only the τ-dependent partitions rebuild, never the views.
	cp := mustCorpus(t, ts)
	if _, _, err := cp.SelfJoin(ctx, 2); err != nil {
		t.Fatal(err)
	}
	cold := cp.CacheStats()
	if _, _, err := cp.SelfJoin(ctx, 2); err != nil {
		t.Fatal(err)
	}
	warm := cp.CacheStats()
	if warm.Misses != cold.Misses {
		t.Errorf("PartSJ repeat at same tau recomputed %d artifacts", warm.Misses-cold.Misses)
	}
	if _, _, err := cp.SelfJoin(ctx, 3); err != nil {
		t.Fatal(err)
	}
	other := cp.CacheStats()
	if recomputed := other.Misses - warm.Misses; recomputed > int64(len(ts)) {
		t.Errorf("PartSJ at new tau recomputed %d artifacts, want at most %d partitions", recomputed, len(ts))
	}
}

// TestCorpusStreamingEarlyStop: breaking out of a streaming join stops it —
// the sequence never yields more, goroutines drain, and a full re-range
// still produces the complete result set.
func TestCorpusStreamingEarlyStop(t *testing.T) {
	ctx := context.Background()
	ts := synth.Sentiment(60, 5)
	cp := mustCorpus(t, ts)
	const tau = 3

	full, _, err := cp.SelfJoin(ctx, tau)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) < 5 {
		t.Skipf("collection too sparse for the early-stop test: %d pairs", len(full))
	}

	seq, err := cp.SelfJoinSeq(ctx, tau, treejoin.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	var streamed int
	for range seq {
		streamed++
		if streamed == 2 {
			break
		}
	}
	if streamed != 2 {
		t.Fatalf("streamed %d pairs, want 2", streamed)
	}

	// Ranging again re-runs the join in full against the warm cache.
	var again []treejoin.Pair
	for p := range seq {
		again = append(again, p)
	}
	sim.SortPairs(again)
	if !slices.Equal(again, full) {
		t.Fatalf("re-range: %v, want %v", again, full)
	}
}

// TestCorpusCancellation: a cancelled context aborts slice and streaming
// joins promptly with the context error and partial results, and leaves no
// goroutines behind.
func TestCorpusCancellation(t *testing.T) {
	ts := synth.Sentiment(80, 9)
	cp := mustCorpus(t, ts)
	const tau = 3

	before := runtime.NumGoroutine()

	// Cancelled before the join starts.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pairs, st, err := cp.SelfJoin(ctx, tau, treejoin.WithWorkers(4))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: err = %v, want context.Canceled", err)
	}
	if st.Trees != len(ts) {
		t.Errorf("partial stats missing collection size: %+v", st)
	}
	_ = pairs // partial (likely empty) results are fine

	// Cancelled mid-stream: the sequence ends early.
	full, _, err := cp.SelfJoin(context.Background(), tau)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) >= 10 {
		ctx, cancel := context.WithCancel(context.Background())
		seq, err := cp.SelfJoinSeq(ctx, tau)
		if err != nil {
			t.Fatal(err)
		}
		var streamed int
		for range seq {
			streamed++
			if streamed == 1 {
				cancel()
			}
		}
		if streamed == len(full) {
			t.Errorf("cancellation mid-stream still yielded all %d pairs", streamed)
		}
		cancel()
	}

	// A deadline in the past behaves like cancellation.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, _, err := cp.SelfJoin(dctx, tau); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("expired deadline: err = %v, want context.DeadlineExceeded", err)
	}
	if _, err := cp.Search(dctx, ts[0], 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("search with expired deadline: err = %v, want context.DeadlineExceeded", err)
	}
	if _, err := cp.KNN(dctx, ts[0], 3); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("knn with expired deadline: err = %v, want context.DeadlineExceeded", err)
	}
	if _, err := cp.TopK(dctx, 3); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("topk with expired deadline: err = %v, want context.DeadlineExceeded", err)
	}

	// All worker goroutines must have drained.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Errorf("goroutine leak: %d before, %d after", before, now)
	}
}

// TestCorpusWithStats: the WithStats option delivers statistics for
// streaming runs, matching the slice API's counters.
func TestCorpusWithStats(t *testing.T) {
	ctx := context.Background()
	ts := synth.Synthetic(40, 3)
	cp := mustCorpus(t, ts)

	var st treejoin.Stats
	seq, err := cp.SelfJoinSeq(ctx, 2, treejoin.WithStats(&st))
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for range seq {
		n++
	}
	if st.Results != n {
		t.Errorf("WithStats Results = %d, want %d", st.Results, n)
	}
	if st.Trees != len(ts) {
		t.Errorf("WithStats Trees = %d, want %d", st.Trees, len(ts))
	}
	if st.Candidates < n {
		t.Errorf("WithStats Candidates = %d < results %d", st.Candidates, n)
	}
}

// TestStageStatsExposed: the public Stats surface carries the per-stage
// attribution for a plain baseline method too (its own filter is a stage).
func TestStageStatsExposed(t *testing.T) {
	ts := synth.Synthetic(40, 31)
	_, st := selfJoin(t, ts, 1, treejoin.WithMethod(treejoin.MethodHistogram))
	if len(st.Stages) != 1 || st.Stages[0].Name != "HIST" {
		t.Fatalf("stages = %+v", st.Stages)
	}
	if st.Stages[0].Out() != st.Candidates {
		t.Fatalf("stage out %d ≠ candidates %d", st.Stages[0].Out(), st.Candidates)
	}
}

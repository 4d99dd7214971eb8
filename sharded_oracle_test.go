// Oracle tests for the partition: an n-part corpus must be bit-identical,
// query for query, to the one-part corpus over the same trees in the same
// order — across part counts, methods, thresholds, and mutation histories —
// and its Snapshots must stay consistent under a concurrent Add/Remove
// hammer.
package treejoin_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"treejoin"
	"treejoin/internal/synth"
)

var shardCounts = []int{1, 2, 4, 7}

func mustSharded(t *testing.T, n int, ts []*treejoin.Tree) *treejoin.Corpus {
	t.Helper()
	sc, err := treejoin.NewSharded(n, ts)
	if err != nil {
		t.Fatalf("NewSharded(%d): %v", n, err)
	}
	return sc
}

func pairsEqual(t *testing.T, label string, got, want []treejoin.Pair) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: pair %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

func matchesEqual(t *testing.T, label string, got, want []treejoin.Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: match %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestShardedSelfJoinOracle sweeps shard counts × methods × thresholds and
// requires the sharded self join to reproduce the single-corpus result
// exactly.
func TestShardedSelfJoinOracle(t *testing.T) {
	ctx := context.Background()
	ts := synth.Synthetic(48, 11)
	cp := mustCorpus(t, ts)
	methods := []struct {
		name string
		opts []treejoin.Option
	}{
		{"partsj", nil},
		{"str", []treejoin.Option{treejoin.WithMethod(treejoin.MethodSTR)}},
		{"hist", []treejoin.Option{treejoin.WithMethod(treejoin.MethodHistogram)}},
	}
	for _, n := range shardCounts {
		sc := mustSharded(t, n, ts)
		if sc.Len() != cp.Len() || sc.NumShards() != n {
			t.Fatalf("shards=%d: Len=%d NumShards=%d", n, sc.Len(), sc.NumShards())
		}
		for _, m := range methods {
			for _, tau := range []int{0, 1, 2, 4} {
				label := fmt.Sprintf("shards=%d method=%s tau=%d", n, m.name, tau)
				want, _, err := cp.SelfJoin(ctx, tau, m.opts...)
				if err != nil {
					t.Fatalf("%s: oracle: %v", label, err)
				}
				got, stats, err := sc.SelfJoin(ctx, tau, m.opts...)
				if err != nil {
					t.Fatalf("%s: sharded: %v", label, err)
				}
				pairsEqual(t, label, got, want)
				if stats.Trees != len(ts) {
					t.Fatalf("%s: stats.Trees = %d, want %d", label, stats.Trees, len(ts))
				}
				if stats.Results != int64(len(want)) {
					t.Fatalf("%s: stats.Results = %d, want %d", label, stats.Results, len(want))
				}
			}
		}
	}
}

// TestShardedJoinOracle: the cross join against another corpus — itself
// partitioned, for every second count — swept over shard counts and
// thresholds.
func TestShardedJoinOracle(t *testing.T) {
	ctx := context.Background()
	ts := synth.Synthetic(60, 7)
	left, right := ts[:40], ts[40:]
	cp := mustCorpus(t, left)
	other := mustCorpus(t, right)
	for i, n := range shardCounts {
		sc, partner := mustSharded(t, n, left), other
		if i%2 == 1 {
			partner = mustSharded(t, n+1, right)
		}
		for _, tau := range []int{0, 1, 2, 4} {
			label := fmt.Sprintf("join shards=%d×%d tau=%d", n, partner.NumShards(), tau)
			want, _, err := cp.Join(ctx, other, tau)
			if err != nil {
				t.Fatalf("%s: oracle: %v", label, err)
			}
			got, stats, err := sc.Join(ctx, partner, tau)
			if err != nil {
				t.Fatalf("%s: sharded: %v", label, err)
			}
			pairsEqual(t, label, got, want)
			if stats.Results != int64(len(want)) {
				t.Fatalf("%s: stats.Results = %d, want %d", label, stats.Results, len(want))
			}
		}
	}
}

// TestShardedSearchTopKKNNOracle: the index-backed and threshold-free
// queries, swept over shard counts.
func TestShardedSearchTopKKNNOracle(t *testing.T) {
	ctx := context.Background()
	ts := synth.Synthetic(48, 3)
	cp := mustCorpus(t, ts)
	q := ts[5]
	for _, n := range shardCounts {
		sc := mustSharded(t, n, ts)
		for _, tau := range []int{0, 2, 5} {
			want, err := cp.Search(ctx, q, tau)
			if err != nil {
				t.Fatalf("search oracle tau=%d: %v", tau, err)
			}
			got, err := sc.Search(ctx, q, tau)
			if err != nil {
				t.Fatalf("search shards=%d tau=%d: %v", n, tau, err)
			}
			matchesEqual(t, fmt.Sprintf("search shards=%d tau=%d", n, tau), got, want)
		}
		for _, k := range []int{1, 5, 20} {
			wantP, err := cp.TopK(ctx, k)
			if err != nil {
				t.Fatalf("topk oracle k=%d: %v", k, err)
			}
			gotP, err := sc.TopK(ctx, k)
			if err != nil {
				t.Fatalf("topk shards=%d k=%d: %v", n, k, err)
			}
			pairsEqual(t, fmt.Sprintf("topk shards=%d k=%d", n, k), gotP, wantP)

			wantM, err := cp.KNN(ctx, q, k)
			if err != nil {
				t.Fatalf("knn oracle k=%d: %v", k, err)
			}
			gotM, err := sc.KNN(ctx, q, k)
			if err != nil {
				t.Fatalf("knn shards=%d k=%d: %v", n, k, err)
			}
			matchesEqual(t, fmt.Sprintf("knn shards=%d k=%d", n, k), gotM, wantM)
		}
	}
}

// TestShardedMutationOracle drives the same Add/Remove history through a
// sharded corpus and a single corpus and requires identical ids, positions,
// and join results at every step.
func TestShardedMutationOracle(t *testing.T) {
	ctx := context.Background()
	ts := synth.Synthetic(40, 19)
	for _, n := range shardCounts {
		cp := mustCorpus(t, ts[:20])
		sc := mustSharded(t, n, ts[:20])
		check := func(step string) {
			t.Helper()
			if sc.Len() != cp.Len() {
				t.Fatalf("shards=%d %s: Len %d vs %d", n, step, sc.Len(), cp.Len())
			}
			for i := 0; i < cp.Len(); i++ {
				if sc.ID(i) != cp.ID(i) || sc.Tree(i) != cp.Tree(i) {
					t.Fatalf("shards=%d %s: position %d diverges", n, step, i)
				}
			}
			want, _, err := cp.SelfJoin(ctx, 2)
			if err != nil {
				t.Fatalf("shards=%d %s: oracle join: %v", n, step, err)
			}
			got, _, err := sc.SelfJoin(ctx, 2)
			if err != nil {
				t.Fatalf("shards=%d %s: sharded join: %v", n, step, err)
			}
			pairsEqual(t, fmt.Sprintf("shards=%d %s", n, step), got, want)
		}
		check("seed")

		wantIDs, err := cp.Add(ts[20:30]...)
		if err != nil {
			t.Fatal(err)
		}
		gotIDs, err := sc.Add(ts[20:30]...)
		if err != nil {
			t.Fatal(err)
		}
		if len(gotIDs) != len(wantIDs) {
			t.Fatalf("Add returned %d ids, want %d", len(gotIDs), len(wantIDs))
		}
		for i := range wantIDs {
			if gotIDs[i] != wantIDs[i] {
				t.Fatalf("Add id %d = %d, want %d", i, gotIDs[i], wantIDs[i])
			}
		}
		check("after add")

		drop := []int{1, 7, 22, 25, 999} // 999: unknown ids are skipped
		if got, want := sc.Remove(drop...), cp.Remove(drop...); got != want {
			t.Fatalf("Remove = %d, want %d", got, want)
		}
		check("after remove")

		if _, err := cp.Add(ts[30:]...); err != nil {
			t.Fatal(err)
		}
		if _, err := sc.Add(ts[30:]...); err != nil {
			t.Fatal(err)
		}
		check("after regrow")

		if p, ok := sc.PosOf(7); ok {
			t.Fatalf("PosOf(removed) = %d, true", p)
		}
	}
}

// TestShardedValidation: construction and query validation surfaces the
// corpus sentinels instead of panicking — no network-reachable panic path.
func TestShardedValidation(t *testing.T) {
	ctx := context.Background()
	ts := synth.Synthetic(8, 1)

	if _, err := treejoin.NewSharded(0, ts); !errors.Is(err, treejoin.ErrShardCount) {
		t.Fatalf("NewSharded(0): err = %v, want ErrShardCount", err)
	}
	if _, err := treejoin.NewSharded(2, []*treejoin.Tree{ts[0], nil}); !errors.Is(err, treejoin.ErrNilTree) {
		t.Fatalf("nil tree: err = %v, want ErrNilTree", err)
	}
	foreign := treejoin.MustParseBracket("{a}", treejoin.NewLabelTable())
	if _, err := treejoin.NewSharded(2, []*treejoin.Tree{ts[0], foreign}); !errors.Is(err, treejoin.ErrLabelTable) {
		t.Fatalf("mixed tables: err = %v, want ErrLabelTable", err)
	}

	sc := mustSharded(t, 3, ts)
	if _, _, err := sc.SelfJoin(ctx, -1); !errors.Is(err, treejoin.ErrNegativeThreshold) {
		t.Fatalf("negative tau: err = %v, want ErrNegativeThreshold", err)
	}
	if _, _, err := sc.SelfJoin(ctx, 1, treejoin.WithMethod(treejoin.Method(99))); !errors.Is(err, treejoin.ErrUnknownMethod) {
		t.Fatalf("bad method: err = %v, want ErrUnknownMethod", err)
	}
	if _, _, err := sc.Join(ctx, nil, 1); !errors.Is(err, treejoin.ErrNilCorpus) {
		t.Fatalf("nil other: err = %v, want ErrNilCorpus", err)
	}
	if _, err := sc.Search(ctx, nil, 1); !errors.Is(err, treejoin.ErrNilTree) {
		t.Fatalf("nil query: err = %v, want ErrNilTree", err)
	}
	if _, err := sc.Search(ctx, foreign, 1); !errors.Is(err, treejoin.ErrLabelTable) {
		t.Fatalf("foreign query: err = %v, want ErrLabelTable", err)
	}
	if _, err := sc.KNN(ctx, foreign, 2); !errors.Is(err, treejoin.ErrLabelTable) {
		t.Fatalf("knn foreign query: err = %v, want ErrLabelTable", err)
	}
	if _, err := sc.TopK(ctx, 3, treejoin.WithMethod(treejoin.MethodSTR)); !errors.Is(err, treejoin.ErrOptionConflict) {
		t.Fatalf("topk method: err = %v, want ErrOptionConflict", err)
	}
	if _, err := sc.Add(nil); !errors.Is(err, treejoin.ErrNilTree) {
		t.Fatalf("add nil: err = %v, want ErrNilTree", err)
	}
	if _, err := sc.Add(foreign); !errors.Is(err, treejoin.ErrLabelTable) {
		t.Fatalf("add foreign: err = %v, want ErrLabelTable", err)
	}
}

// TestShardedSnapshotIsolation: a Snapshot pinned before a mutation keeps
// answering from the pre-mutation state — every part of it — while the corpus
// itself moves on.
func TestShardedSnapshotIsolation(t *testing.T) {
	ctx := context.Background()
	ts := synth.Synthetic(24, 5)
	sc := mustSharded(t, 3, ts[:16])
	v := sc.Snapshot()

	want, _, err := v.SelfJoin(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Add(ts[16:]...); err != nil {
		t.Fatal(err)
	}
	sc.Remove(0, 3)
	if v.Len() != 16 || v.Epoch() == sc.Epoch() {
		t.Fatalf("view moved: Len=%d Epoch=%d (corpus %d)", v.Len(), v.Epoch(), sc.Epoch())
	}
	got, _, err := v.SelfJoin(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	pairsEqual(t, "pinned view", got, want)
}

// TestShardedConcurrentHammer races pinned-view queries of every kind
// against a stream of Add/Remove batches; run with -race. Each query's
// results must be internally consistent with the view it pinned.
func TestShardedConcurrentHammer(t *testing.T) {
	ctx := context.Background()
	ts := synth.Synthetic(60, 23)
	sc := mustSharded(t, 4, ts[:30])
	q := ts[2]

	var wg sync.WaitGroup
	stop := make(chan struct{})
	fail := make(chan error, 16)

	// Writer: adds and removes in waves, reusing the tail trees.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < 60; i++ {
			ids, err := sc.Add(ts[30+rng.Intn(30)])
			if err != nil {
				fail <- fmt.Errorf("hammer add: %w", err)
				return
			}
			if rng.Intn(2) == 0 {
				sc.Remove(ids...)
			}
			sc.Remove(rng.Intn(90))
		}
		close(stop)
	}()

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := sc.Snapshot()
				n := v.Len()
				switch r % 4 {
				case 0:
					pairs, _, err := v.SelfJoin(ctx, 1)
					if err != nil {
						fail <- fmt.Errorf("hammer selfjoin: %w", err)
						return
					}
					for _, p := range pairs {
						if p.I < 0 || p.J >= n || p.I >= p.J {
							fail <- fmt.Errorf("hammer selfjoin: pair %+v outside view of %d", p, n)
							return
						}
					}
				case 1:
					ms, err := v.Search(ctx, q, 2)
					if err != nil {
						fail <- fmt.Errorf("hammer search: %w", err)
						return
					}
					for _, m := range ms {
						if m.Pos < 0 || m.Pos >= n {
							fail <- fmt.Errorf("hammer search: pos %d outside view of %d", m.Pos, n)
							return
						}
					}
				case 2:
					if _, err := v.KNN(ctx, q, 3); err != nil {
						fail <- fmt.Errorf("hammer knn: %w", err)
						return
					}
				case 3:
					for i := 0; i < n; i++ {
						if p, ok := v.PosOf(v.ID(i)); !ok || p != i {
							fail <- fmt.Errorf("hammer ids: ID/PosOf disagree at %d", i)
							return
						}
					}
				}
			}
		}(r)
	}
	wg.Wait()
	select {
	case err := <-fail:
		t.Fatal(err)
	default:
	}

	// The settled corpus still matches a fresh single corpus over the same
	// survivors.
	final := mustCorpus(t, collectTrees(sc))
	want, _, err := final.SelfJoin(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := sc.SelfJoin(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	pairsEqual(t, "post-hammer", got, want)
}

func collectTrees(sc *treejoin.Corpus) []*treejoin.Tree {
	out := make([]*treejoin.Tree, sc.Len())
	for i := range out {
		out[i] = sc.Tree(i)
	}
	return out
}

// TestStatsAcrossPartCounts: a join over any number of parts is one run over
// the whole membership — NewSharded(1, ts) and NewSharded(4, ts) report Stats
// field-identical to NewCorpus(ts)'s, durations aside, for every method under
// the fixed plan; a repeat join finds every index it needs (IndexBuildTime 0,
// though each of the four parts is below the token index's own cutoff); and
// with no plan option a 4-part join runs the plan Explain describes.
func TestStatsAcrossPartCounts(t *testing.T) {
	ctx := context.Background()
	ts := synth.Synthetic(160, 13) // 40 a part on four
	timeless := func(st treejoin.Stats) treejoin.Stats {
		st.CandTime, st.VerifyTime, st.CandWall, st.PartitionTime, st.IndexBuildTime = 0, 0, 0, 0, 0
		return st
	}
	for m := treejoin.MethodPartSJ; m <= treejoin.MethodPQGram; m++ {
		opts := []treejoin.Option{treejoin.WithMethod(m), treejoin.WithFixedPlan(), treejoin.WithWorkers(1)}
		pairs, want, err := mustCorpus(t, ts).SelfJoin(ctx, 2, opts...)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 4} {
			sc := mustSharded(t, n, ts)
			for run := 0; run < 2; run++ {
				got, st, err := sc.SelfJoin(ctx, 2, opts...)
				if err != nil || !reflect.DeepEqual(timeless(st), timeless(want)) || run == 1 && st.IndexBuildTime != 0 {
					t.Fatalf("%v, run %d on %d parts: Stats %+v\nNewCorpus %+v (err %v)", m, run, n, st, want, err)
				}
				pairsEqual(t, m.String(), got, pairs)
			}
		}
		four := mustSharded(t, 4, ts)
		ex, err := four.Explain(ctx, 2, treejoin.WithMethod(m))
		if err != nil {
			t.Fatal(err)
		}
		_, st, err := four.SelfJoin(ctx, 2, treejoin.WithMethod(m))
		if err != nil || st.Plan.Source != ex.Source || !slices.Equal(st.Plan.Chain, ex.Chain) || st.Plan.PrefixC != ex.PrefixC {
			t.Fatalf("%v: the 4-part join ran %+v, Explain said %+v (err %v)", m, st.Plan, ex, err)
		}
	}
}

// TestShardedStreamingStop: breaking out of SelfJoinSeq stops the join
// without error, and WithStats receives the run's Stats after the sequence
// ends.
func TestShardedStreamingStop(t *testing.T) {
	ctx := context.Background()
	ts := synth.Synthetic(40, 29)
	sc := mustSharded(t, 3, ts)

	var stats treejoin.Stats
	seq, err := sc.SelfJoinSeq(ctx, 4, treejoin.WithStats(&stats))
	if err != nil {
		t.Fatal(err)
	}
	var streamed []treejoin.Pair
	for p := range seq {
		streamed = append(streamed, p)
	}
	want, _, err := sc.SelfJoin(ctx, 4)
	if err != nil {
		t.Fatal(err)
	}
	sortPairs(streamed)
	pairsEqual(t, "streamed full", streamed, want)
	if stats.Results != int64(len(want)) || stats.Trees != len(ts) {
		t.Fatalf("stats: Results=%d Trees=%d, want %d/%d", stats.Results, stats.Trees, len(want), len(ts))
	}

	if len(want) > 1 {
		seq, err := sc.SelfJoinSeq(ctx, 4)
		if err != nil {
			t.Fatal(err)
		}
		got := 0
		for range seq {
			got++
			if got == 1 {
				break
			}
		}
		if got != 1 {
			t.Fatalf("early break: %d pairs", got)
		}
	}
}

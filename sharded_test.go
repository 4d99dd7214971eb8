// Tests of the partition that are not histories: construction and query
// validation, Stats across part counts and streaming stops. The sharded
// oracles and snapshot isolation are entry points of history_test.go.
package treejoin_test

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"testing"

	"treejoin"
	"treejoin/internal/sim"
	"treejoin/internal/synth"
)

func mustSharded(t *testing.T, n int, ts []*treejoin.Tree) *treejoin.Corpus {
	t.Helper()
	sc, err := treejoin.NewSharded(n, ts)
	if err != nil {
		t.Fatalf("NewSharded(%d): %v", n, err)
	}
	return sc
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

// TestStatsAcrossPartCounts: a join over any number of parts is one run over
// the whole membership — NewSharded(1, ts) and NewSharded(4, ts) report Stats
// field-identical to NewCorpus(ts)'s, durations aside, for every method; a
// repeat join finds every index it needs (IndexBuildTime 0, though each of the
// four parts is below the token index's own cutoff); a 4-part join runs the
// plan Explain describes; and a cross join reports the same Stats whether its
// receiver and its partner each sit on one part or on four.
func TestStatsAcrossPartCounts(t *testing.T) {
	ctx := context.Background()
	ts := synth.Synthetic(160, 13) // 40 a part on four
	timeless := func(st treejoin.Stats) treejoin.Stats {
		st.CandTime, st.VerifyTime, st.CandWall, st.PartitionTime, st.IndexBuildTime = 0, 0, 0, 0, 0
		return st
	}
	for m := treejoin.MethodPartSJ; m <= treejoin.MethodPQGram; m++ {
		opts := []treejoin.Option{treejoin.WithMethod(m), treejoin.WithWorkers(1)}
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
				if !slices.Equal(got, pairs) {
					t.Fatalf("%v on %d parts: pairs differ from NewCorpus's", m, n)
				}
			}
		}
		cpairs, cwant, err := mustCorpus(t, ts[:120]).Join(ctx, mustCorpus(t, ts[120:]), 2, opts...)
		if err != nil {
			t.Fatal(err)
		}
		for _, na := range []int{1, 4} {
			for _, nb := range []int{1, 4} {
				got, st, err := mustSharded(t, na, ts[:120]).Join(ctx, mustSharded(t, nb, ts[120:]), 2, opts...)
				if err != nil || !reflect.DeepEqual(timeless(st), timeless(cwant)) || !slices.Equal(got, cpairs) {
					t.Fatalf("%v, cross join of %d parts against %d: Stats %+v\nNewCorpus %+v (err %v)", m, na, nb, st, cwant, err)
				}
			}
		}
		four := mustSharded(t, 4, ts)
		ex, err := four.Explain(ctx, 2, treejoin.WithMethod(m))
		if err != nil {
			t.Fatal(err)
		}
		_, st, err := four.SelfJoin(ctx, 2, treejoin.WithMethod(m))
		if err != nil || st.Plan.Source != ex.Source || !slices.Equal(st.Plan.Chain, ex.Chain) {
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
	sim.SortPairs(streamed)
	if !slices.Equal(streamed, want) {
		t.Fatalf("streamed %v, want %v", streamed, want)
	}
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

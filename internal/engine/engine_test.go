package engine_test

import (
	"fmt"
	"testing"

	"treejoin/internal/engine"
	"treejoin/internal/sim"
	"treejoin/internal/synth"
	"treejoin/internal/ted"
	"treejoin/internal/tree"
)

// oracleSelf computes the self-join ground truth by exhaustive bounded TED.
func oracleSelf(ts []*tree.Tree, tau int) []sim.Pair {
	var out []sim.Pair
	for i := 0; i < len(ts); i++ {
		for j := i + 1; j < len(ts); j++ {
			if d, ok := ted.DistanceBounded(ts[i], ts[j], tau); ok {
				out = append(out, sim.Pair{I: i, J: j, Dist: d})
			}
		}
	}
	sim.SortPairs(out)
	return out
}

// oracleCross computes the cross-join ground truth.
func oracleCross(a, b []*tree.Tree, tau int) []sim.Pair {
	var out []sim.Pair
	for i := 0; i < len(a); i++ {
		for j := 0; j < len(b); j++ {
			if d, ok := ted.DistanceBounded(a[i], b[j], tau); ok {
				out = append(out, sim.Pair{I: i, J: j, Dist: d})
			}
		}
	}
	sim.SortPairs(out)
	return out
}

func equalPairs(t *testing.T, label string, got, want []sim.Pair) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, want %d\ngot:  %v\nwant: %v", label, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: pair %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}

// TestSortedLoopOracle: the bare sorted loop (size window only) equals the
// exhaustive oracle, self and cross, sequential and with parallel candidate
// generation.
func TestSortedLoopOracle(t *testing.T) {
	ts := synth.Synthetic(60, 11)
	for _, tau := range []int{0, 1, 3} {
		want := oracleSelf(ts, tau)
		for _, workers := range []int{0, 1, 4} {
			job := engine.Job{Tau: tau, Workers: workers}
			got, st := job.SelfJoin(ts)
			equalPairs(t, fmt.Sprintf("self τ=%d w=%d", tau, workers), got, want)
			if st.Results != int64(len(want)) || st.Trees != len(ts) {
				t.Fatalf("stats: %+v", st)
			}
		}
	}
	a, b := ts[:25], ts[25:]
	for _, tau := range []int{1, 3} {
		want := oracleCross(a, b, tau)
		for _, workers := range []int{0, 4} {
			job := engine.Job{Tau: tau, Workers: workers}
			got, _ := job.Join(a, b)
			equalPairs(t, fmt.Sprintf("cross τ=%d w=%d", tau, workers), got, want)
		}
	}
}

// sizeFilter is a trivially sound test stage counting its calls.
func sizeFilter(name string) engine.PairFilter {
	return engine.NewFilter(name, func(c *engine.Collection) func(i, j int) bool {
		tau := c.Tau
		return func(i, j int) bool {
			d := c.Trees[i].Size() - c.Trees[j].Size()
			if d < 0 {
				d = -d
			}
			return d <= tau
		}
	})
}

// rejectAll prunes everything — unsound on purpose, to observe attribution.
func rejectAll() engine.PairFilter {
	return engine.NewFilter("reject", func(c *engine.Collection) func(i, j int) bool {
		return func(i, j int) bool { return false }
	})
}

// TestStageAttribution: stage counters conserve pairs — every offered pair
// is either pruned by some stage or reaches the verifier — and merge
// correctly across parallel tasks.
func TestStageAttribution(t *testing.T) {
	ts := synth.Synthetic(50, 7)
	for _, workers := range []int{1, 4} {
		job := engine.Job{
			Tau:     2,
			Workers: workers,
			Filters: []engine.PairFilter{sizeFilter("size"), rejectAll()},
		}
		pairs, st := job.SelfJoin(ts)
		if len(pairs) != 0 {
			t.Fatalf("reject-all stage let %d pairs through", len(pairs))
		}
		if len(st.Stages) != 2 {
			t.Fatalf("stages: %+v", st.Stages)
		}
		first, second := st.Stages[0], st.Stages[1]
		if first.Name != "size" || second.Name != "reject" {
			t.Fatalf("stage names: %+v", st.Stages)
		}
		if first.Out() != second.In {
			t.Fatalf("stage flow broken: %d out vs %d in", first.Out(), second.In)
		}
		if second.Out() != st.Candidates {
			t.Fatalf("verifier fed %d, last stage emitted %d", st.Candidates, second.Out())
		}
		if second.Pruned != second.In {
			t.Fatalf("reject stage pruned %d of %d", second.Pruned, second.In)
		}
		if first.In == 0 {
			t.Fatal("no pairs offered at τ=2 on a 50-tree collection")
		}
	}
}

// TestInlineFlushesAreCounted: a sequential job verifies in chunks while its
// source still runs; the candidates and verify time of those chunks must
// reach the run's Stats exactly as the pool-wide pass of a parallel job does
// (they used to be dropped: only the last partial chunk was reported).
func TestInlineFlushesAreCounted(t *testing.T) {
	ts := synth.Generate(synth.SyntheticParams(150, 3, 4, 6, 10, 11))
	var want int64
	for _, workers := range []int{4, 1} {
		_, st := engine.Job{Tau: 40, Workers: workers}.SelfJoin(ts)
		if workers == 4 {
			want = st.Candidates
			if want <= 2*4096 {
				t.Fatalf("fixture too small: %d candidates do not span two inline chunks", want)
			}
			continue
		}
		if st.Candidates != want || st.VerifyTime <= 0 {
			t.Fatalf("sequential run reports %d candidates in %v, the parallel run %d", st.Candidates, st.VerifyTime, want)
		}
		if st.DPAvoided+st.Certified+st.StrategyLeft+st.StrategyRight != st.Candidates {
			t.Fatalf("%d candidates, but %d rejected and %d certified without a DP and %d+%d DPs", st.Candidates, st.DPAvoided, st.Certified, st.StrategyLeft, st.StrategyRight)
		}
	}
}

// TestFilterChainInvariance: chaining sound filters in any combination never
// changes the result set.
func TestFilterChainInvariance(t *testing.T) {
	ts := synth.Synthetic(40, 3)
	want, _ := engine.Job{Tau: 2}.SelfJoin(ts)
	got, st := engine.Job{
		Tau:     2,
		Filters: []engine.PairFilter{sizeFilter("a"), sizeFilter("b"), sizeFilter("c")},
	}.SelfJoin(ts)
	equalPairs(t, "chained", got, want)
	if len(st.Stages) != 3 {
		t.Fatalf("stages: %+v", st.Stages)
	}
}

// TestEmptyAndTiny: degenerate collections flow through every code path.
func TestEmptyAndTiny(t *testing.T) {
	if pairs, st := (engine.Job{Tau: 1}).SelfJoin(nil); len(pairs) != 0 || st.Results != 0 {
		t.Fatalf("empty: %v %+v", pairs, st)
	}
	lt := tree.NewLabelTable()
	one := []*tree.Tree{tree.MustParseBracket("{a}", lt)}
	if pairs, _ := (engine.Job{Tau: 1, Workers: 8}).SelfJoin(one); len(pairs) != 0 {
		t.Fatalf("singleton: %v", pairs)
	}
	if pairs, _ := (engine.Job{Tau: 1}).Join(one, nil); len(pairs) != 0 {
		t.Fatalf("cross empty: %v", pairs)
	}
	two := []*tree.Tree{tree.MustParseBracket("{a}", lt), tree.MustParseBracket("{b}", lt)}
	pairs, _ := (engine.Job{Tau: 1}).Join(two[:1], two[1:])
	if len(pairs) != 1 || pairs[0] != (sim.Pair{I: 0, J: 0, Dist: 1}) {
		t.Fatalf("cross pair: %v", pairs)
	}
}

// TestNegativeTauPanics: the engine guards the threshold invariant.
func TestNegativeTauPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	(engine.Job{Tau: -1}).SelfJoin(nil)
}

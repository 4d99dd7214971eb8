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

// TestArenaForCaching: ArenaFor serves cached views by pointer identity,
// builds only the misses, and a dynamic collection's new trees slot in
// without rebuilding the warm ones.
func TestArenaForCaching(t *testing.T) {
	ts := synth.Synthetic(20, 19)
	c := engine.NewCache()

	views := engine.ArenaFor(c, ts, 2)
	if len(views) != len(ts) {
		t.Fatalf("%d views for %d trees", len(views), len(ts))
	}
	for i, v := range views {
		if v.T != ts[i] {
			t.Fatalf("view %d flattens the wrong tree", i)
		}
	}
	if got := c.KindEntries(engine.ArenaKey); got != len(ts) {
		t.Fatalf("KindEntries = %d, want %d", got, len(ts))
	}

	// Warm pass: identical view pointers, no new entries.
	again := engine.ArenaFor(c, ts, 2)
	for i := range views {
		if again[i] != views[i] {
			t.Fatalf("warm ArenaFor rebuilt view %d", i)
		}
	}

	// A grown collection rebuilds only the new tree.
	grown := append(append([]*tree.Tree{}, ts...), synth.Synthetic(21, 19)[20])
	mixed := engine.ArenaFor(c, grown, 2)
	for i := range views {
		if mixed[i] != views[i] {
			t.Fatalf("grown ArenaFor rebuilt warm view %d", i)
		}
	}
	if mixed[len(ts)].T != grown[len(ts)] {
		t.Fatal("grown ArenaFor missed the new tree")
	}
	if got := c.KindEntries(engine.ArenaKey); got != len(ts)+1 {
		t.Fatalf("KindEntries after growth = %d, want %d", got, len(ts)+1)
	}

	// Eviction drops the arena artifact with every other kind.
	c.Evict(ts[0])
	if got := c.KindEntries(engine.ArenaKey); got != len(ts) {
		t.Fatalf("KindEntries after Evict = %d, want %d", got, len(ts))
	}

	// A nil cache degrades to a plain batch build.
	bare := engine.ArenaFor(nil, ts, 2)
	if len(bare) != len(ts) || bare[0].T != ts[0] {
		t.Fatal("nil-cache ArenaFor broken")
	}
}

// TestArenaVerifierMatchesOracle: the default engine verifier (the batched
// arena path) returns bit-identical pairs and distances to the exhaustive
// Zhang–Shasha oracle, across worker counts and thresholds — the engine
// half of the arena soundness argument (internal/ted proves the kernel).
func TestArenaVerifierMatchesOracle(t *testing.T) {
	ts := synth.Synthetic(60, 23)
	for _, tau := range []int{0, 1, 2, 4, 8} {
		want := oracleSelf(ts, tau)
		for _, workers := range []int{1, 4} {
			got, st := engine.Job{Tau: tau, Workers: workers}.SelfJoin(ts)
			equalPairs(t, fmt.Sprintf("arena τ=%d w=%d", tau, workers), got, want)
			if dps := st.Candidates - st.DPAvoided - st.Certified; st.StrategyLeft+st.StrategyRight != dps {
				t.Fatalf("τ=%d w=%d: %d strategy decisions recorded over %d DP candidates",
					tau, workers, st.StrategyLeft+st.StrategyRight, dps)
			}
		}
	}
}

// TestArenaVerifierZeroAllocs is the allocation regression gate of the
// batched verify path: with warm arena views, a worker's whole
// candidate-batch loop — strategy choice, banded DP, scratch reuse —
// allocates nothing per pair.
func TestArenaVerifierZeroAllocs(t *testing.T) {
	ts := synth.Synthetic(24, 29)
	cache := engine.NewCache()
	factory := engine.NewArenaVerifiers(engine.ArenaFor(cache, ts, 2), nil)
	var cands []sim.Candidate
	for i := range ts {
		for j := i + 1; j < len(ts); j++ {
			cands = append(cands, sim.Candidate{I: i, J: j})
		}
	}
	v := factory()
	defer v.Close()
	// Warm the scratch to steady state before measuring.
	for _, c := range cands {
		v.VerifyPair(c.I, c.J, 4)
	}
	allocs := testing.AllocsPerRun(10, func() {
		for _, c := range cands {
			v.VerifyPair(c.I, c.J, 4)
		}
	})
	if allocs != 0 {
		t.Fatalf("batched arena verify allocated %.1f times per %d-pair batch, want 0", allocs, len(cands))
	}
}

// TestCustomVerifierStillRuns: a Job with an explicit Verifier bypasses the
// arena path through the stateless adapter, and its decisions are respected
// verbatim (the verifier-injection tests depend on it).
func TestCustomVerifierStillRuns(t *testing.T) {
	ts := synth.Synthetic(30, 31)
	var calls int64
	v := func(t1, t2 *tree.Tree, tau int) (int, bool) {
		calls++
		return ted.DistanceBounded(t1, t2, tau)
	}
	got, st := engine.Job{Tau: 2, Verifier: v, Workers: 1}.SelfJoin(ts)
	want := oracleSelf(ts, 2)
	equalPairs(t, "custom verifier", got, want)
	if calls != st.Candidates {
		t.Fatalf("custom verifier saw %d candidates, stats say %d", calls, st.Candidates)
	}
	if st.StrategyLeft+st.StrategyRight != 0 {
		t.Fatal("custom-verifier run recorded arena strategy counters")
	}
}

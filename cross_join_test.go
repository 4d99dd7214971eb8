// Property tests for the engine-backed public API: every method — the six
// historical ones plus MethodPQGram — returns oracle-identical results for
// self and cross joins on randomized corpora, and the execution knobs
// (WithWorkers, NewSharded, WithPrefilter) never change the result set.
package treejoin_test

import (
	"context"
	"fmt"
	"testing"

	"treejoin"
	"treejoin/internal/synth"
)

var allMethods = []treejoin.Method{
	treejoin.MethodPartSJ,
	treejoin.MethodSTR,
	treejoin.MethodSET,
	treejoin.MethodBruteForce,
	treejoin.MethodHistogram,
	treejoin.MethodEulerString,
	treejoin.MethodPQGram,
}

func samePairs(t *testing.T, label string, got, want []treejoin.Pair) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: pair %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}

// TestCrossJoinMethodAgreement: Join(a, b) matches the BruteForce oracle for
// every method on randomized corpora of three shape profiles.
func TestCrossJoinMethodAgreement(t *testing.T) {
	corpora := []struct {
		name string
		gen  func(seed int64) []*treejoin.Tree
	}{
		{"synthetic", func(seed int64) []*treejoin.Tree { return synth.Synthetic(50, seed) }},
		{"treebank", func(seed int64) []*treejoin.Tree { return synth.Treebank(40, seed) }},
		{"sentiment", func(seed int64) []*treejoin.Tree { return synth.Sentiment(40, seed) }},
	}
	for _, corpus := range corpora {
		for seed := int64(1); seed <= 2; seed++ {
			ts := corpus.gen(seed)
			a, b := ts[:len(ts)/3], ts[len(ts)/3:]
			for _, tau := range []int{0, 2, 4} {
				want, _ := crossJoin(t, a, b, tau, treejoin.WithMethod(treejoin.MethodBruteForce))
				for _, m := range allMethods {
					if m == treejoin.MethodBruteForce {
						continue
					}
					got, st := crossJoin(t, a, b, tau, treejoin.WithMethod(m))
					samePairs(t, fmt.Sprintf("%s/seed=%d/τ=%d/%v", corpus.name, seed, tau, m), got, want)
					if st.Results != int64(len(want)) {
						t.Fatalf("%v stats.Results = %d, want %d", m, st.Results, len(want))
					}
				}
			}
		}
	}
}

// TestSelfJoinMethodAgreement: the same property for SelfJoin, which the
// historical per-method tests only covered method by method.
func TestSelfJoinMethodAgreement(t *testing.T) {
	ts := synth.Synthetic(60, 17)
	for _, tau := range []int{1, 3} {
		want, _ := selfJoin(t, ts, tau, treejoin.WithMethod(treejoin.MethodBruteForce))
		for _, m := range allMethods {
			got, _ := selfJoin(t, ts, tau, treejoin.WithMethod(m))
			samePairs(t, fmt.Sprintf("τ=%d/%v", tau, m), got, want)
		}
	}
}

// TestParallelismInvariance: WithWorkers and the part count change how the
// join executes, never the result set — for every method, self and cross.
func TestParallelismInvariance(t *testing.T) {
	ts := synth.Treebank(50, 23)
	a, b := ts[:20], ts[20:]
	const tau = 2
	for _, m := range allMethods {
		self, _ := selfJoin(t, ts, tau, treejoin.WithMethod(m))
		cross, _ := crossJoin(t, a, b, tau, treejoin.WithMethod(m))
		for _, workers := range []int{2, 4} {
			got, _ := selfJoin(t, ts, tau, treejoin.WithMethod(m), treejoin.WithWorkers(workers))
			samePairs(t, fmt.Sprintf("self/%v/w=%d", m, workers), got, self)
			got, _ = crossJoin(t, a, b, tau, treejoin.WithMethod(m), treejoin.WithWorkers(workers))
			samePairs(t, fmt.Sprintf("cross/%v/w=%d", m, workers), got, cross)
		}
		sharded, _, err := mustSharded(t, 4, ts).SelfJoin(context.Background(), tau, treejoin.WithMethod(m), treejoin.WithWorkers(4))
		if err != nil {
			t.Fatal(err)
		}
		samePairs(t, fmt.Sprintf("self/%v/parts=4", m), sharded, self)
	}
}

// TestPrefilterInvariance: chaining any prefilter combination in front of
// any method leaves results untouched and attributes stage kills coherently.
func TestPrefilterInvariance(t *testing.T) {
	ts := synth.Synthetic(50, 29)
	a, b := ts[:20], ts[20:]
	const tau = 2
	chains := [][]treejoin.Prefilter{
		{treejoin.PrefilterHistogram},
		{treejoin.PrefilterSET, treejoin.PrefilterSTR},
		{treejoin.PrefilterHistogram, treejoin.PrefilterPQGram, treejoin.PrefilterEulerString},
	}
	for _, m := range allMethods {
		self, _ := selfJoin(t, ts, tau, treejoin.WithMethod(m))
		cross, _ := crossJoin(t, a, b, tau, treejoin.WithMethod(m))
		for ci, chain := range chains {
			got, st := selfJoin(t, ts, tau, treejoin.WithMethod(m), treejoin.WithPrefilter(chain...))
			samePairs(t, fmt.Sprintf("self/%v/chain=%d", m, ci), got, self)
			if len(st.Stages) < len(chain) {
				t.Fatalf("%v chain %d: %d stages reported, want ≥ %d", m, ci, len(st.Stages), len(chain))
			}
			for k := 1; k < len(chain); k++ {
				if st.Stages[k].In != st.Stages[k-1].Out() {
					t.Fatalf("%v chain %d: stage %d in %d ≠ stage %d out %d",
						m, ci, k, st.Stages[k].In, k-1, st.Stages[k-1].Out())
				}
			}
			got, _ = crossJoin(t, a, b, tau, treejoin.WithMethod(m), treejoin.WithPrefilter(chain...))
			samePairs(t, fmt.Sprintf("cross/%v/chain=%d", m, ci), got, cross)
		}
	}
	// Prefilter + workers compose.
	got, _ := selfJoin(t, ts, tau,
		treejoin.WithPrefilter(treejoin.PrefilterHistogram), treejoin.WithWorkers(4))
	want, _ := selfJoin(t, ts, tau)
	samePairs(t, "composed", got, want)
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

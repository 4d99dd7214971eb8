// BenchmarkPlanSweep quantifies the adaptive planner: on corpora with very
// different shapes (flat/wide Swissprot, deep/narrow Sentiment, parse-like
// Treebank), the best execution plan for the same query differs — sometimes
// the token index wins, sometimes the sorted loop with a reordered chain.
// The sweep measures the PQG+HIST signature join per profile × τ under each
// fixed plan and under the auto plan. Fixed runs go first: their statistics
// feed the corpus's cost model, so the auto rows measure a converged planner
// (origin "observed") — the steady state of a reused corpus. The acceptance
// bar is auto within 5% of the best fixed plan everywhere and ≥1.3× over the
// worst fixed plan somewhere.
package treejoin_test

import (
	"context"
	"fmt"
	"testing"

	"treejoin"
	"treejoin/internal/synth"
)

func BenchmarkPlanSweep(b *testing.B) {
	ctx := context.Background()
	profiles := []struct {
		name string
		ts   []*treejoin.Tree
	}{
		// Swissprot at 2000 trees: wide windows, heavy chains — the token
		// index amortises its build and wins. The two 500-tree profiles are
		// loop territory: the per-run index build never pays for itself.
		{"swissprot2k", synth.Swissprot(2000, 21)},
		{"sentiment", synth.Sentiment(500, 22)},
		{"treebank", synth.Treebank(500, 23)},
	}
	plans := []struct {
		name string
		opts []treejoin.Option
	}{
		{"fixed-index", []treejoin.Option{treejoin.WithFixedPlan(treejoin.PlanSpec{Source: treejoin.PlanSourceTokenIndex})}},
		{"fixed-loop", []treejoin.Option{treejoin.WithFixedPlan(treejoin.PlanSpec{Source: treejoin.PlanSourceSortedLoop})}},
		{"auto", nil},
	}
	for _, p := range profiles {
		cp, err := treejoin.NewCorpus(p.ts)
		if err != nil {
			b.Fatal(err)
		}
		for _, tau := range []int{1, 2, 4} {
			for _, pl := range plans {
				b.Run(fmt.Sprintf("%s/tau=%d/%s", p.name, tau, pl.name), func(b *testing.B) {
					opts := append([]treejoin.Option{
						treejoin.WithMethod(treejoin.MethodPQGram),
						treejoin.WithPrefilter(treejoin.PrefilterHistogram),
					}, pl.opts...)
					var st treejoin.Stats
					opts = append(opts, treejoin.WithStats(&st))
					for i := 0; i < b.N; i++ {
						if _, _, err := cp.SelfJoin(ctx, tau, opts...); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(st.Candidates), "cands")
				})
			}
		}
	}
}

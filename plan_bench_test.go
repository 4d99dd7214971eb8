// BenchmarkPlanSweep measures the token index against the sorted loop on
// corpora of very different shapes (flat/wide Swissprot, deep/narrow
// Sentiment, parse-like Treebank): the HIST→PQG chain per profile × τ as
// MethodPQGram behind a HIST prefilter (default: the token index, with its
// own fallback to the loop) and as MethodBruteForce behind HIST and PQG
// prefilters (fixed-loop), on one reused corpus, so each row is the steady
// state of a corpus that already holds its artifacts. The cands metric shows
// both plans hand the verifier the same candidates.
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
		// index amortises its build and wins. Of the two 500-tree profiles,
		// the loop is faster on Sentiment and the index on Treebank.
		{"swissprot2k", synth.Swissprot(2000, 21)},
		{"sentiment", synth.Sentiment(500, 22)},
		{"treebank", synth.Treebank(500, 23)},
	}
	plans := []struct {
		name string
		opts []treejoin.Option
	}{
		{"fixed-loop", []treejoin.Option{treejoin.WithMethod(treejoin.MethodBruteForce),
			treejoin.WithPrefilter(treejoin.PrefilterHistogram, treejoin.PrefilterPQGram)}},
		{"default", []treejoin.Option{treejoin.WithMethod(treejoin.MethodPQGram),
			treejoin.WithPrefilter(treejoin.PrefilterHistogram)}},
	}
	for _, p := range profiles {
		cp, err := treejoin.NewCorpus(p.ts)
		if err != nil {
			b.Fatal(err)
		}
		for _, tau := range []int{1, 2, 4} {
			for _, pl := range plans {
				b.Run(fmt.Sprintf("%s/tau=%d/%s", p.name, tau, pl.name), func(b *testing.B) {
					var st treejoin.Stats
					opts := append(pl.opts, treejoin.WithStats(&st))
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

package treejoin_test

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"

	"treejoin"
	"treejoin/internal/synth"
)

// TestBandedVerificationMatches: the τ-banded verifier produces exactly the
// brute-force result set (unbounded Zhang–Shasha over every pair) across
// methods, thresholds and worker counts, and the run's Stats are conserved:
// every candidate is accounted for — rejected with no DP (the traversal-string
// screen's rejections a subset of those), certified with no DP, or decided by
// a DP under a recorded strategy — and nothing the statistics count depends on how many workers the
// tasks were dealt to.
func TestBandedVerificationMatches(t *testing.T) {
	ctx := context.Background()
	ts := synth.Synthetic(50, 23)
	cp := mustCorpus(t, ts)
	for _, tau := range []int{0, 1, 3, 6} {
		var want []treejoin.Pair
		for i := range ts {
			for j := i + 1; j < len(ts); j++ {
				if d := treejoin.Distance(ts[i], ts[j]); d <= tau {
					want = append(want, treejoin.Pair{I: i, J: j, Dist: d})
				}
			}
		}
		for _, m := range []treejoin.Method{
			treejoin.MethodPartSJ, treejoin.MethodSTR, treejoin.MethodSET, treejoin.MethodBruteForce,
			treejoin.MethodHistogram, treejoin.MethodEulerString, treejoin.MethodPQGram,
		} {
			var one treejoin.Stats
			for _, workers := range []int{1, 2, 4} {
				banded, bst, err := cp.SelfJoin(ctx, tau, treejoin.WithMethod(m), treejoin.WithFixedPlan(), treejoin.WithWorkers(workers))
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(banded, want) {
					t.Fatalf("%v τ=%d workers=%d: pairs differ from brute force", m, tau, workers)
				}
				if m == treejoin.MethodBruteForce && tau <= 1 &&
					bst.DPAvoided == 0 && bst.KeyrootsSkipped == 0 && bst.BandAborts == 0 {
					t.Fatalf("%v τ=%d: banded run recorded no verifier pruning (candidates=%d)",
						m, tau, bst.Candidates)
				}
				if m == treejoin.MethodBruteForce && tau >= 1 && bst.SeqRejects == 0 {
					t.Fatalf("τ=%d: the string screen settled none of %d size-window pairs", tau, bst.Candidates)
				}
				if bst.SeqRejects > bst.DPAvoided || bst.Certified > bst.Results ||
					bst.DPAvoided+bst.Certified+bst.StrategyLeft+bst.StrategyRight != bst.Candidates {
					t.Fatalf("%v τ=%d w=%d: %d candidates, %d rejected with no DP (%d by the string screen), %d certified, %d+%d DPs",
						m, tau, workers, bst.Candidates, bst.DPAvoided, bst.SeqRejects, bst.Certified, bst.StrategyLeft, bst.StrategyRight)
				}
				if workers == 1 {
					one = bst
					continue
				}
				same := bst.Candidates == one.Candidates && bst.Results == one.Results && bst.Results == int64(len(want)) &&
					bst.PostingsScanned == one.PostingsScanned && bst.SkippedByCount == one.SkippedByCount &&
					len(bst.Stages) == len(one.Stages)
				for i := 0; same && i < len(one.Stages); i++ {
					same = bst.Stages[i].In == one.Stages[i].In && bst.Stages[i].Pruned == one.Stages[i].Pruned
				}
				if !same {
					t.Fatalf("%v τ=%d: statistics at %d workers %+v differ from one worker's %+v", m, tau, workers, bst, one)
				}
			}
		}
	}
}

// TestConcurrentVerifyAcrossTwoCorpora hammers the verifier's pooled scratch
// buffers and shared cached arena views from many concurrent verify workers
// across two corpora — parallel self joins on each side and cross joins
// between them, all racing — and asserts every result identical to the
// serial run. Under -race this is the detector test for the scratch pool
// and the routed cross-join cache.
func TestConcurrentVerifyAcrossTwoCorpora(t *testing.T) {
	ctx := context.Background()
	ts := synth.Sentiment(85, 3) // one generation → one shared label table
	as, bs := ts[:45], ts[45:]
	cpA := mustCorpus(t, as)
	cpB := mustCorpus(t, bs)
	const tau = 2

	selfA, _, err := cpA.SelfJoin(ctx, tau)
	if err != nil {
		t.Fatal(err)
	}
	selfB, _, err := cpB.SelfJoin(ctx, tau)
	if err != nil {
		t.Fatal(err)
	}
	cross, _, err := cpA.Join(ctx, cpB, tau)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	fail := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				switch (w + round) % 3 {
				case 0:
					got, _, err := cpA.SelfJoin(ctx, tau, treejoin.WithWorkers(4))
					if err != nil {
						fail(err)
						return
					}
					if !slices.Equal(got, selfA) {
						fail(errors.New("concurrent selfA: pairs differ"))
						return
					}
				case 1:
					got, _, err := cpB.SelfJoin(ctx, tau, treejoin.WithWorkers(4), treejoin.WithMethod(treejoin.MethodHistogram))
					if err != nil {
						fail(err)
						return
					}
					if !slices.Equal(got, selfB) {
						fail(errors.New("concurrent selfB: pairs differ"))
						return
					}
				case 2:
					got, _, err := cpA.Join(ctx, cpB, tau, treejoin.WithWorkers(4))
					if err != nil {
						fail(err)
						return
					}
					if !slices.Equal(got, cross) {
						fail(errors.New("concurrent cross: pairs differ"))
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

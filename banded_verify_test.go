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

// TestBandedVerificationMatches: the banded verifier prunes. A brute-force
// join hands it every size-window pair, so it must settle some candidates
// without a full DP (rejected by a bound, keyroots skipped, a band aborted)
// at τ ≤ 1, and reject some with the traversal-string screen at τ ≥ 1. The
// results themselves, the verify funnel and the worker invariance of every
// count are the history harness's checks (history_test.go).
func TestBandedVerificationMatches(t *testing.T) {
	ctx := context.Background()
	cp := mustCorpus(t, synth.Synthetic(50, 23))
	for _, tau := range []int{0, 1, 3, 6} {
		_, st, err := cp.SelfJoin(ctx, tau, treejoin.WithMethod(treejoin.MethodBruteForce), treejoin.WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		if tau <= 1 && st.DPAvoided == 0 && st.KeyrootsSkipped == 0 && st.BandAborts == 0 {
			t.Fatalf("τ=%d: banded run recorded no verifier pruning (candidates=%d)", tau, st.Candidates)
		}
		if tau >= 1 && st.SeqRejects == 0 {
			t.Fatalf("τ=%d: the string screen settled none of %d size-window pairs", tau, st.Candidates)
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

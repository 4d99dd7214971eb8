package sim_test

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"treejoin/internal/sim"
	"treejoin/internal/ted"
	"treejoin/internal/tree"
)

// recordingFactory wraps AdaptVerifier-style verification with mint/close
// accounting, so the tests can assert the batched stage's verifier lifecycle:
// every minted per-worker verifier is closed exactly once, on every path.
type recordingFactory struct {
	ts     []*tree.Tree
	mu     sync.Mutex
	minted int
	closed int
}

type recordingVerifier struct {
	f *recordingFactory
}

func (v recordingVerifier) VerifyPair(i, j, tau int) (int, bool) {
	return ted.DistanceBounded(v.f.ts[i], v.f.ts[j], tau)
}

func (v recordingVerifier) Close() {
	v.f.mu.Lock()
	v.f.closed++
	v.f.mu.Unlock()
}

func (f *recordingFactory) factory() sim.BatchVerifier {
	f.mu.Lock()
	f.minted++
	f.mu.Unlock()
	return recordingVerifier{f: f}
}

// batchFixture returns hand-written trees and every pair of them as
// candidates.
func batchFixture(t *testing.T) ([]*tree.Tree, []sim.Candidate) {
	t.Helper()
	lt := tree.NewLabelTable()
	specs := []string{
		"{a{b}{c}}", "{a{b}{d}}", "{a{b}}", "{x{y{z}}}", "{x{y}}",
		"{a{b}{c{d}}}", "{q}", "{a{c}{b}}", "{x{z{y}}}", "{a{b}{c}{d}}",
	}
	ts := make([]*tree.Tree, len(specs))
	for i, s := range specs {
		ts[i] = tree.MustParseBracket(s, lt)
	}
	return ts, allPairs(len(ts))
}

// randomFixture returns 20 random trees of 1 to 12 nodes over three labels
// and every pair of them as candidates, every other one in reverse order.
func randomFixture() ([]*tree.Tree, []sim.Candidate) {
	lt := tree.NewLabelTable()
	rng := rand.New(rand.NewSource(77))
	var ts []*tree.Tree
	for i := 0; i < 20; i++ {
		b := tree.NewBuilder(lt)
		b.Root("r")
		n := 1 + rng.Intn(12)
		for j := 1; j < n; j++ {
			b.Child(int32(rng.Intn(j)), string(rune('a'+rng.Intn(3))))
		}
		ts = append(ts, b.MustBuild())
	}
	cands := allPairs(len(ts))
	for k := 0; k < len(cands); k += 2 {
		cands[k].I, cands[k].J = cands[k].J, cands[k].I
	}
	return ts, cands
}

func allPairs(n int) []sim.Candidate {
	var cands []sim.Candidate
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			cands = append(cands, sim.Candidate{I: i, J: j})
		}
	}
	return cands
}

// referencePairs returns the candidates the one-off verifier accepts at tau,
// normalised to I < J and sorted.
func referencePairs(ts []*tree.Tree, cands []sim.Candidate, tau int) []sim.Pair {
	var want []sim.Pair
	for _, c := range cands {
		if d, ok := ted.DistanceBounded(ts[c.I], ts[c.J], tau); ok {
			want = append(want, sim.Pair{I: min(c.I, c.J), J: max(c.I, c.J), Dist: d})
		}
	}
	sim.SortPairs(want)
	return want
}

// collect runs one verification through run and returns the pairs it emitted,
// sorted, and the stats it accounted.
func collect(run func(*sim.Stats, sim.EmitFunc)) ([]sim.Pair, sim.Stats) {
	var st sim.Stats
	var got []sim.Pair
	run(&st, func(p sim.Pair) bool {
		got = append(got, p)
		return true
	})
	sim.SortPairs(got)
	return got, st
}

// TestVerifyStreamBatchedMatchesSequential: the batched stage returns the
// exact pair set of the one-off verifier at every worker count, counts every
// candidate, and closes every verifier it minted.
func TestVerifyStreamBatchedMatchesSequential(t *testing.T) {
	ts, cands := batchFixture(t)
	for _, tau := range []int{0, 1, 3} {
		want := referencePairs(ts, cands, tau)
		for _, workers := range []int{1, 2, 8} {
			rf := &recordingFactory{ts: ts}
			got, st := collect(func(st *sim.Stats, emit sim.EmitFunc) {
				sim.VerifyStreamBatched(context.Background(), cands, tau, rf.factory, workers, st, emit)
			})
			if !slices.Equal(got, want) {
				t.Fatalf("τ=%d w=%d: pairs %v, want %v", tau, workers, got, want)
			}
			if st.Candidates != int64(len(cands)) {
				t.Fatalf("τ=%d w=%d: candidates = %d, want %d", tau, workers, st.Candidates, len(cands))
			}
			if rf.minted == 0 || rf.minted != rf.closed {
				t.Fatalf("τ=%d w=%d: minted %d verifiers, closed %d", tau, workers, rf.minted, rf.closed)
			}
		}
	}
}

// TestVerifyAllSequentialVsParallel: verifying all candidates of a random
// fixture inline and on eight workers yields the same pairs — those the
// one-off verifier accepts — and the same candidate accounting.
func TestVerifyAllSequentialVsParallel(t *testing.T) {
	ts, cands := randomFixture()
	adapted := sim.AdaptVerifier(ts, ted.DistanceBounded)
	for _, tau := range []int{0, 2, 5} {
		want := referencePairs(ts, cands, tau)
		for _, workers := range []int{1, 8} {
			got, st := collect(func(st *sim.Stats, emit sim.EmitFunc) {
				sim.VerifyStreamBatched(context.Background(), cands, tau, adapted, workers, st, emit)
			})
			if !slices.Equal(got, want) {
				t.Fatalf("τ=%d w=%d: pairs %v, want %v", tau, workers, got, want)
			}
			if st.Candidates != int64(len(cands)) {
				t.Fatalf("τ=%d w=%d: candidates = %d, want %d", tau, workers, st.Candidates, len(cands))
			}
		}
	}
}

// TestVerifyAllNormalisesPairOrder: a candidate given as (J, I) comes back as
// a pair with I < J, inline and in parallel.
func TestVerifyAllNormalisesPairOrder(t *testing.T) {
	lt := tree.NewLabelTable()
	ts := []*tree.Tree{
		tree.MustParseBracket("{a}", lt),
		tree.MustParseBracket("{a}", lt),
	}
	got, _ := collect(func(st *sim.Stats, emit sim.EmitFunc) {
		sim.VerifyStreamBatched(context.Background(), []sim.Candidate{{I: 1, J: 0}}, 0, sim.AdaptVerifier(ts, ted.DistanceBounded), 1, st, emit)
	})
	if len(got) != 1 || got[0].I != 0 || got[0].J != 1 {
		t.Fatalf("pair not normalised: %v", got)
	}
	// The random fixture reverses every other candidate.
	rts, rcands := randomFixture()
	for _, workers := range []int{1, 8} {
		got, _ := collect(func(st *sim.Stats, emit sim.EmitFunc) {
			sim.VerifyStreamBatched(context.Background(), rcands, 5, sim.AdaptVerifier(rts, ted.DistanceBounded), workers, st, emit)
		})
		if len(got) == 0 {
			t.Fatalf("w=%d: no pairs at τ=5", workers)
		}
		for _, p := range got {
			if p.I >= p.J {
				t.Fatalf("w=%d: pair not normalised: %v", workers, p)
			}
		}
	}
}

// TestVerifyAllCustomVerifier: a custom verifier adapted by AdaptVerifier is
// the one deciding, called once per candidate at every worker count.
func TestVerifyAllCustomVerifier(t *testing.T) {
	lt := tree.NewLabelTable()
	ts := []*tree.Tree{
		tree.MustParseBracket("{a}", lt),
		tree.MustParseBracket("{b}", lt),
	}
	called := 0
	v := func(a, b *tree.Tree, tau int) (int, bool) {
		called++
		return 0, true // everything matches
	}
	got, _ := collect(func(st *sim.Stats, emit sim.EmitFunc) {
		sim.VerifyStreamBatched(context.Background(), []sim.Candidate{{I: 0, J: 1}}, 0, sim.AdaptVerifier(ts, v), 1, st, emit)
	})
	if called != 1 || len(got) != 1 {
		t.Fatalf("custom verifier not used (called=%d, out=%v)", called, got)
	}
	rts, rcands := randomFixture()
	for _, workers := range []int{1, 2, 8} {
		var calls atomic.Int64
		custom := func(a, b *tree.Tree, tau int) (int, bool) {
			calls.Add(1)
			return ted.DistanceBounded(a, b, tau)
		}
		got, _ := collect(func(st *sim.Stats, emit sim.EmitFunc) {
			sim.VerifyStreamBatched(context.Background(), rcands, 2, sim.AdaptVerifier(rts, custom), workers, st, emit)
		})
		if want := referencePairs(rts, rcands, 2); !slices.Equal(got, want) {
			t.Fatalf("w=%d: pairs %v, want %v", workers, got, want)
		}
		if calls.Load() != int64(len(rcands)) {
			t.Fatalf("w=%d: custom verifier called %d times, want %d", workers, calls.Load(), len(rcands))
		}
	}
}

// TestVerifyStreamWith: a run split into chunks that share one stats value —
// as the engine's inline flushes drive the stage — decides the same pairs and
// accounts the same candidates as one run, and closes every verifier each
// chunk minted.
func TestVerifyStreamWith(t *testing.T) {
	ts, cands := batchFixture(t)
	want := referencePairs(ts, cands, 3)
	rf := &recordingFactory{ts: ts}
	got, st := collect(func(st *sim.Stats, emit sim.EmitFunc) {
		half := len(cands) / 2
		for _, chunk := range [][]sim.Candidate{cands[:half], cands[half:]} {
			sim.VerifyStreamBatched(context.Background(), chunk, 3, rf.factory, 1, st, emit)
		}
	})
	if !slices.Equal(got, want) {
		t.Fatalf("pairs %v, want %v", got, want)
	}
	if st.Candidates != int64(len(cands)) {
		t.Fatalf("candidates = %d, want %d", st.Candidates, len(cands))
	}
	if rf.minted == 0 || rf.minted != rf.closed {
		t.Fatalf("minted %d verifiers, closed %d", rf.minted, rf.closed)
	}
}

// TestVerifyStreamBatchedEarlyStop: a sink that stops the stream still gets
// every minted verifier closed, and the stage stops delivering.
func TestVerifyStreamBatchedEarlyStop(t *testing.T) {
	ts, cands := batchFixture(t)
	for _, workers := range []int{1, 4} {
		rf := &recordingFactory{ts: ts}
		var st sim.Stats
		emitted := 0
		sim.VerifyStreamBatched(context.Background(), cands, 4, rf.factory, workers, &st, func(sim.Pair) bool {
			emitted++
			return false
		})
		if emitted != 1 {
			t.Fatalf("w=%d: emit called %d times after stop", workers, emitted)
		}
		if rf.minted == 0 || rf.minted != rf.closed {
			t.Fatalf("w=%d: minted %d verifiers, closed %d", workers, rf.minted, rf.closed)
		}
	}
}

// TestVerifyStreamBatchedCancellation: a pre-cancelled context verifies
// nothing but still balances the verifier lifecycle.
func TestVerifyStreamBatchedCancellation(t *testing.T) {
	ts, cands := batchFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		rf := &recordingFactory{ts: ts}
		var st sim.Stats
		sim.VerifyStreamBatched(ctx, cands, 4, rf.factory, workers, &st, func(sim.Pair) bool {
			t.Fatal("emit after cancellation")
			return false
		})
		if rf.minted != rf.closed {
			t.Fatalf("w=%d: minted %d verifiers, closed %d", workers, rf.minted, rf.closed)
		}
	}
}

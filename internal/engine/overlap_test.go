package engine_test

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"treejoin/internal/engine"
	"treejoin/internal/sim"
	"treejoin/internal/synth"
	"treejoin/internal/ted"
	"treejoin/internal/tree"
)

// oneTask is a source with a single sequential task, like PartSJ's and the
// token index's: it offers every pair of the size window, then calls done.
type oneTask struct{ done func() }

func (oneTask) Name() string { return "one-task" }

func (s oneTask) Tasks(c *engine.Collection, shards int) []engine.Task {
	return []engine.Task{func(px *engine.Pipeline) {
		for p, ti := range c.Order {
			if px.Cancelled() {
				return
			}
			for k := c.WindowStart(c.Trees[ti].Size()); k < p; k++ {
				px.Offer(ti, c.Order[k])
			}
		}
		if s.done != nil {
			s.done()
		}
	}}
}

// TestVerificationOverlapsSingleTask: when a plan has fewer tasks than
// workers, candidates are verified while the task is still running — the task
// here refuses to finish until a verification has happened — and the result,
// the candidate count and early termination are what a sequential run gives.
func TestVerificationOverlapsSingleTask(t *testing.T) {
	ts := synth.Synthetic(120, 11)
	const tau = 2
	want := oracleSelf(ts, tau)
	_, seq := engine.Job{Source: oneTask{}, Tau: tau, Workers: 1}.SelfJoin(ts)

	for _, workers := range []int{2, 4} {
		var verified atomic.Int64
		first := make(chan struct{})
		verifier := func(t1, t2 *tree.Tree, tau int) (int, bool) {
			if verified.Add(1) == 1 {
				close(first)
			}
			return ted.DistanceBounded(t1, t2, tau)
		}
		overlapped := true
		job := engine.Job{Tau: tau, Workers: workers, Verifier: verifier, Source: oneTask{done: func() {
			select {
			case <-first:
			case <-time.After(10 * time.Second):
				overlapped = false
			}
		}}}
		got, st := job.SelfJoin(ts)
		label := fmt.Sprintf("w=%d", workers)
		if !overlapped {
			t.Fatalf("%s: no candidate was verified while the task was running", label)
		}
		equalPairs(t, label, got, want)
		if st.Candidates != seq.Candidates || st.Candidates != verified.Load() {
			t.Fatalf("%s: %d candidates, %d verified; the sequential run had %d", label, st.Candidates, verified.Load(), seq.Candidates)
		}

		// A sink that stops after one pair ends the run: no hang, no error.
		n := 0
		if _, err := job.StreamSelf(context.Background(), ts, func(sim.Pair) bool { n++; return false }); err != nil || n != 1 {
			t.Fatalf("%s: stopped stream delivered %d pairs, err %v", label, n, err)
		}
		// So does a cancelled context, with its error.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := job.StreamSelf(ctx, ts, func(sim.Pair) bool { return true }); err != context.Canceled {
			t.Fatalf("%s: cancelled run returned %v", label, err)
		}
	}
}

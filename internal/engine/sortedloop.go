package engine

import "time"

// The sorted nested loop: the candidate source behind BruteForce and every
// lower-bound baseline (STR, SET, HIST, EUL, and the Euler-gram filter).
// Trees are processed in ascending size order; the partners of a probe are
// the preceding trees within the τ size window (for cross joins, those on
// the opposite side), so the size filter is built into the enumeration and
// every unordered pair is offered exactly once — at the probe position of
// its larger tree.
//
// The loop keeps no shared state, so candidate generation parallelises for
// free: probe positions are dealt round-robin across c.Workers tasks
// (position p costs O(p) window work, so contiguous chunks would load the
// last task with most of the quadratic total; striding balances it), and
// each task screens its own pairs through the filter chain. The candidate
// set, and therefore the join result, is identical to the sequential loop's.

type sortedLoop struct{}

// SortedLoop returns the size-ordered nested-loop candidate source.
func SortedLoop() CandidateSource { return sortedLoop{} }

func (sortedLoop) Name() string { return "sorted-loop" }

func (sortedLoop) Tasks(c *Collection) []Task {
	n := min(c.Workers, len(c.Order))
	if n == 0 {
		return nil
	}
	tasks := make([]Task, n)
	for s := 0; s < n; s++ {
		s := s
		tasks[s] = func(px *Pipeline) {
			start := time.Now()
			for p := s; p < len(c.Order); p += n {
				if px.Cancelled() {
					break
				}
				ti := c.Order[p]
				lo := c.WindowStart(c.Trees[ti].Size())
				for k := lo; k < p; k++ {
					tj := c.Order[k]
					if c.SameSide(ti, tj) {
						continue
					}
					px.Offer(ti, tj)
				}
			}
			px.Stats().CandTime += time.Since(start)
		}
	}
	return tasks
}

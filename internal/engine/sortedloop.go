package engine

import "time"

// The sorted nested loop: the candidate source behind BruteForce and every
// lower-bound baseline (STR, SET, HIST, EUL, and the Euler-gram filter).
// Each probing tree scans its window of the indexed side's size order
// (Collection.window): for a self join the preceding trees within τ in size,
// so the size filter is built into the enumeration and every unordered pair
// is offered exactly once — at the probe of its larger tree; for a cross join
// every tree of A within τ in size of the probing tree of B.
//
// The loop keeps no shared state, so candidate generation parallelises for
// free: probes are dealt round-robin across c.Workers tasks (a self join's
// probe at position p costs O(p) window work, so contiguous chunks would load
// the last task with most of the quadratic total; striding balances it), and
// each task screens its own pairs through the filter chain. The candidate
// set, and therefore the join result, is identical to the sequential loop's.

type sortedLoop struct{}

// SortedLoop returns the size-ordered nested-loop candidate source.
func SortedLoop() CandidateSource { return sortedLoop{} }

func (sortedLoop) Name() string { return "sorted-loop" }

func (sortedLoop) Tasks(c *Collection) []Task {
	n := min(c.Workers, len(c.Probes))
	if n == 0 {
		return nil
	}
	tasks := make([]Task, n)
	for s := 0; s < n; s++ {
		tasks[s] = func(px *Pipeline) {
			start := time.Now()
			for p := s; p < len(c.Probes); p += n {
				if px.Cancelled() {
					break
				}
				ti := c.Probes[p]
				lo, hi := c.window(ti)
				for _, tj := range c.Order[lo:hi] {
					px.Offer(ti, tj)
				}
			}
			px.Stats().CandTime += time.Since(start)
		}
	}
	return tasks
}

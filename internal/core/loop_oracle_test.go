package core

import (
	"fmt"
	"maps"
	"math/rand"
	"sync"
	"testing"

	"treejoin/internal/baseline"
	"treejoin/internal/engine"
	"treejoin/internal/lcrs"
	"treejoin/internal/sim"
	"treejoin/internal/tree"
)

// The sequential probe-and-insert loop of Algorithm 1 (lines 3–16), as the
// join ran it before build-then-probe: one pass over the size order, each tree
// probing an index that holds exactly the trees before it and then joining
// it. It is kept as the oracle of the frozen-index source: same candidates,
// same counters. Its cross join is the one-sided reference: every tree of A
// inserted, then each tree of B probing that index over its two-sided size
// window.

// loopOracle holds the loop's state; see run.
type loopOracle struct {
	ts    []*tree.Tree // the collection; A ++ B for a cross join
	split int          // len(A), or −1 for a self join
	opts  Options
	keep  func(i, j int) bool // the prefilter chain; nil keeps every pair

	bins  []*lcrs.Bin
	state []int64
	gen   int64
	sc    matchScratch
	st    partitionState

	cands map[[2]int]int // candidate multiset, keyed by (smaller, larger) index
	stats sim.Stats
}

// run is the probe/insert loop over the ascending-size order of a self join,
// or A's inserts and then B's probes of a cross join.
func (j *loopOracle) run() {
	n := len(j.ts)
	j.bins, j.state, j.gen, j.cands = make([]*lcrs.Bin, n), make([]int64, n), 1, make(map[[2]int]int)
	ix := newInvIndex(j.opts.Tau)
	var smalls []int
	// Algorithm 1 lines 13–16: partition the tree and add its subgraphs, or
	// record it as a small tree.
	insert := func(ti int) {
		if j.ts[ti].Size() >= j.opts.delta() {
			ix.insert(ti, compute(j.bins[ti], j.opts.delta(), &j.st))
		} else {
			smalls = append(smalls, ti)
		}
	}
	if j.split < 0 {
		for _, ti := range sim.SizeOrder(j.ts) {
			j.bins[ti] = lcrs.Build(j.ts[ti])
			j.probeAndCollect(ti, ix, smalls, j.ts[ti].Size())
			insert(ti)
		}
	} else {
		for ti := range j.split {
			j.bins[ti] = lcrs.Build(j.ts[ti])
			insert(ti)
		}
		for ti := j.split; ti < n; ti++ {
			j.bins[ti] = lcrs.Build(j.ts[ti])
			j.probeAndCollect(ti, ix, smalls, j.ts[ti].Size()+j.opts.Tau)
		}
	}
	j.stats.IndexedSubgraphs += ix.n
}

func (j *loopOracle) screen(a, b int) bool { return j.keep == nil || j.keep(a, b) }

func (j *loopOracle) emit(a, b int) { j.cands[[2]int{min(a, b), max(a, b)}]++ }

// probeAndCollect gathers the candidate partners of tree ti of sizes up to hi
// among the trees already inserted into ix and smalls (Algorithm 1 lines
// 5–10). Pairs pass the filter chain before any subgraph-match test.
func (j *loopOracle) probeAndCollect(ti int, ix *invIndex, smalls []int, hi int) {
	b, sz := j.bins[ti], j.ts[ti].Size()
	gen := j.gen
	j.gen++
	// Small-tree fallback: trees below δ nodes were never indexed.
	for _, other := range smalls {
		if so := j.ts[other].Size(); so >= sz-j.opts.Tau && so <= hi && j.screen(ti, other) {
			j.stats.SmallTreeFallback++
			j.emit(ti, other)
		}
	}
	for _, n := range b.Order {
		j.stats.SubgraphProbes += ix.probe(b, n, max(sz-j.opts.Tau, 1), hi, noTieLimit, func(e posting) {
			switch st := j.state[e.tree]; {
			case st>>2 != gen:
				if !j.screen(ti, int(e.tree)) {
					j.state[e.tree] = gen<<2 | stKilled
					return
				}
				j.state[e.tree] = gen<<2 | stPassed
			case st&3 != stPassed: // already emitted or killed this probe
				return
			}
			j.stats.MatchTests++
			if ix.matches(e, b, n, &j.sc) {
				j.stats.MatchHits++
				j.state[e.tree] = gen<<2 | stEmitted
				j.emit(ti, int(e.tree))
			}
		})
	}
}

// clusteredTrees draws n trees in clusters of near-duplicates a few edits
// apart — so that joins have candidates — with a few trees too small to
// partition, all distinct objects.
func clusteredTrees(rng *rand.Rand, n int, lt *tree.LabelTable) []*tree.Tree {
	ts := make([]*tree.Tree, 0, n)
	for len(ts) < n {
		base := randomSizedTree(rng, 1+rng.Intn(24), lt)
		for k := 1 + rng.Intn(5); k > 0 && len(ts) < n; k-- {
			t := base.Clone()
			for e := rng.Intn(4); e > 0; e-- {
				t = randomEditOp(rng, t, lt)
			}
			ts = append(ts, t)
		}
	}
	rng.Shuffle(n, func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
	return ts
}

// TestProbesAgreeWithSequentialLoop: over random collections, every
// threshold 0..4, self and cross joins (against the one-sided reference),
// with and without a HIST prefilter, on 1, 2 and 8 workers (and more probe
// chunks than that), the frozen-index source hands the verifier the candidate
// multiset the sequential loop produces, and reports its four index counters
// and its small-tree count. One index, built once, serves every run.
func TestProbesAgreeWithSequentialLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1307))
	lt := tree.NewLabelTable()
	iters := 24
	if testing.Short() {
		iters = 8
	}
	for iter := 0; iter < iters; iter++ {
		ts := clusteredTrees(rng, 40+rng.Intn(60), lt)
		split := -1
		if iter%2 == 1 {
			split = len(ts) / 3
		}
		at := make(map[*tree.Tree]int, len(ts))
		for i, tr := range ts {
			at[tr] = i
		}
		profiles := make([]*baseline.HistProfile, len(ts))
		for i, tr := range ts {
			profiles[i] = baseline.NewHistProfile(tr)
		}
		for tau := 0; tau <= 4; tau++ {
			for _, hist := range []bool{false, true} {
				opts := Options{Tau: tau}
				want := &loopOracle{ts: ts, split: split, opts: opts}
				var filters []engine.PairFilter
				if hist {
					want.keep = func(i, j int) bool { return baseline.HistLowerBound(profiles[i], profiles[j]) <= tau }
					filters = []engine.PairFilter{baseline.HISTFilter()}
				}
				want.run()

				// One index for all worker counts, built once.
				o := opts
				o.Workers = 2
				x := NewIndexCached(ts, o, nil)
				if split >= 0 {
					x = NewIndexCached(ts[:split], o, nil)
				}
				for _, workers := range []int{1, 2, 8} {
					name := fmt.Sprintf("iter %d split %d τ=%d hist=%v workers=%d", iter, split, tau, hist, workers)
					var mu sync.Mutex
					got := make(map[[2]int]int)
					opts.Workers = workers
					opts.Verifier = func(t1, t2 *tree.Tree, _ int) (int, bool) {
						i, j := at[t1], at[t2]
						mu.Lock()
						got[[2]int{min(i, j), max(i, j)}]++
						mu.Unlock()
						return 0, false
					}
					job := partSJJob(opts, x, filters...)
					var st *sim.Stats
					if split < 0 {
						_, st = job.SelfJoin(ts)
					} else {
						_, st = job.Join(ts[:split], ts[split:])
					}
					if !maps.Equal(got, want.cands) {
						t.Fatalf("%s: candidates differ from the sequential loop's:\n got %v\nwant %v", name, got, want.cands)
					}
					w := want.stats
					if st.SubgraphProbes != w.SubgraphProbes || st.MatchTests != w.MatchTests || st.MatchHits != w.MatchHits ||
						st.IndexedSubgraphs != w.IndexedSubgraphs || st.SmallTreeFallback != w.SmallTreeFallback {
						t.Fatalf("%s: probes/tests/hits/indexed/small = %d/%d/%d/%d/%d, the loop's %d/%d/%d/%d/%d", name,
							st.SubgraphProbes, st.MatchTests, st.MatchHits, st.IndexedSubgraphs, st.SmallTreeFallback,
							w.SubgraphProbes, w.MatchTests, w.MatchHits, w.IndexedSubgraphs, w.SmallTreeFallback)
					}
				}
			}
		}
	}
}

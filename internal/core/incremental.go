package core

import (
	"context"
	"time"

	"treejoin/internal/engine"
	"treejoin/internal/lcrs"
	"treejoin/internal/sim"
	"treejoin/internal/ted"
	"treejoin/internal/tree"
)

// Incremental is the streaming form of PartSJ, motivated by the paper's
// closing remark on workloads "where tree objects are inserted and updated at
// a high rate". Trees arrive in any order; Add returns the new tree's join
// partners among all previously added trees.
//
// Algorithm 1 processes trees in ascending size order so a probe only needs
// inverted lists I_n with n ≤ |T_i|. Arrival order is arbitrary here, so Add
// probes the symmetric window n ∈ [|T|−τ, |T|+τ]. Lemma 2 is direction-
// agnostic — for any pair it is the earlier (already partitioned) tree whose
// subgraph must appear in the later one — so correctness is unaffected.
//
// Incremental is not safe for concurrent use; wrap it in a mutex if multiple
// goroutines add trees.
type Incremental struct {
	opts    Options
	delta   int
	cache   *engine.Cache
	ts      []*tree.Tree
	views   []*ted.TreeView // the default verifier's arena views, beside ts
	bins    []*lcrs.Bin
	parts   []*Partition
	ix      *invIndex
	smalls  []int
	checked []int32
	gen     int32
	sc      matchScratch
	st      partitionState
	stats   sim.Stats

	removed   []bool
	nRemoved  int
	compactAt int // rebuild the index when nRemoved reaches this

	// The standing result view: every pair reported by an Add and not yet
	// retracted by a Remove, keyed by packed (I, J). Removals move the dead
	// tree's pairs to the retraction delta, which Retracted drains — so a
	// consumer holding a materialised result set can apply deltas instead
	// of re-joining (the maintenance model of dynamic similarity-join
	// enumeration).
	standing map[uint64]int32
	retract  []sim.Pair
}

// standingKey packs a result pair (i < j) into one map key.
func standingKey(i, j int) uint64 { return uint64(uint32(i))<<32 | uint64(uint32(j)) }

// NewIncrementalCached returns an empty streaming join with the given options
// (opts.Tau ≥ 0; RandomPartition is not supported and is ignored), drawing
// per-tree artifacts (binary views, δ-partitions, the verifier's arena views)
// from cache: a stream fed trees a corpus has already joined — or re-adding a
// tree it removed — skips their recomputation. A nil cache computes
// everything locally.
func NewIncrementalCached(opts Options, cache *engine.Cache) *Incremental {
	return &Incremental{
		opts:      opts,
		delta:     opts.delta(),
		cache:     cache,
		ix:        newInvIndex(opts.Tau, opts.Position),
		compactAt: 16,
		standing:  make(map[uint64]int32),
	}
}

// verifiers returns the stream's batched verifier factory over the trees
// added so far: a custom Options.Verifier adapted statelessly, else the
// τ-banded bounded TED over the views kept beside the trees.
func (inc *Incremental) verifiers() sim.BatchVerifierFactory {
	if inc.opts.Verifier != nil {
		return sim.AdaptVerifier(inc.ts, inc.opts.Verifier)
	}
	return engine.NewArenaVerifiers(inc.views, nil)
}

// Len returns the number of trees added so far, including removed ones
// (positions are stable).
func (inc *Incremental) Len() int { return len(inc.ts) }

// Live returns the number of trees added and not yet removed.
func (inc *Incremental) Live() int { return len(inc.ts) - inc.nRemoved }

// Tree returns the i-th added tree, or nil if it has been removed.
func (inc *Incremental) Tree(i int) *tree.Tree { return inc.ts[i] }

// Stats returns a snapshot of the accumulated execution statistics.
func (inc *Incremental) Stats() sim.Stats {
	s := inc.stats
	s.Trees = len(inc.ts)
	return s
}

// Add inserts t and returns all pairs (existing index, new index) whose TED
// is at most τ, sorted by existing index. The new tree's index is Len()-1
// after the call.
func (inc *Incremental) Add(t *tree.Tree) []sim.Pair {
	start := time.Now()
	ti := len(inc.ts)
	inc.ts = append(inc.ts, t)
	var view *ted.TreeView
	if inc.opts.Verifier == nil {
		view = engine.ArenaFor(inc.cache, []*tree.Tree{t}, 1)[0]
	}
	inc.views = append(inc.views, view)
	b := cachedBin(inc.cache, t)
	inc.bins = append(inc.bins, b)
	inc.parts = append(inc.parts, nil)
	inc.checked = append(inc.checked, -1)
	inc.removed = append(inc.removed, false)
	sz := t.Size()
	gen := inc.gen
	inc.gen++

	var cands []sim.Candidate
	for _, other := range inc.smalls {
		if inc.removed[other] {
			continue
		}
		d := inc.ts[other].Size() - sz
		if d < 0 {
			d = -d
		}
		if d <= inc.opts.Tau && inc.checked[other] != gen {
			inc.checked[other] = gen
			cands = append(cands, sim.Candidate{I: other, J: ti})
			inc.stats.SmallTreeFallback++
		}
	}
	minSize := sz - inc.opts.Tau
	if minSize < 1 {
		minSize = 1
	}
	for _, n := range b.Order {
		inc.stats.SubgraphProbes += inc.ix.probe(b, n, minSize, sz+inc.opts.Tau, noTieLimit, func(e posting) {
			if inc.removed[e.tree] || inc.checked[e.tree] == gen {
				return
			}
			inc.stats.MatchTests++
			if inc.ix.matches(e, b, n, &inc.sc) {
				inc.stats.MatchHits++
				inc.checked[e.tree] = gen
				cands = append(cands, sim.Candidate{I: int(e.tree), J: ti})
			}
		})
	}
	inc.stats.CandTime += time.Since(start)

	var pairs []sim.Pair
	sim.VerifyStreamBatched(context.Background(), cands, inc.opts.Tau, inc.verifiers(), sim.NormalizeWorkers(inc.opts.Workers), &inc.stats, func(p sim.Pair) bool {
		pairs = append(pairs, p)
		return true
	})

	pStart := time.Now()
	if sz >= inc.delta {
		p := cachedPartition(inc.cache, t, b, partitionCacheKey(inc.delta), inc.delta, &inc.st)
		inc.parts[ti] = p
		indexed := inc.ix.n
		inc.ix.insert(ti, p)
		inc.stats.IndexedSubgraphs += inc.ix.n - indexed
	} else {
		inc.smalls = append(inc.smalls, ti)
	}
	inc.stats.PartitionTime += time.Since(pStart)

	sim.SortPairs(pairs)
	inc.stats.Results += int64(len(pairs))
	for _, p := range pairs {
		inc.standing[standingKey(p.I, p.J)] = int32(p.Dist)
	}
	return pairs
}

// Pairs returns the standing result set — every pair some Add reported whose
// trees are both still live — in canonical ascending (I, J) order. It is the
// self-join of the live trees at the stream's threshold, maintained across
// arbitrary Add/Remove sequences.
func (inc *Incremental) Pairs() []sim.Pair {
	out := make([]sim.Pair, 0, len(inc.standing))
	for k, d := range inc.standing {
		out = append(out, sim.Pair{I: int(k >> 32), J: int(uint32(k)), Dist: int(d)})
	}
	sim.SortPairs(out)
	return out
}

// Retracted drains the retraction delta: every standing pair withdrawn by
// Remove calls since the previous drain, in canonical order. A consumer
// mirroring the result set applies Add's returned pairs as insertions and
// this delta as deletions; after both, its mirror equals Pairs().
func (inc *Incremental) Retracted() []sim.Pair {
	out := inc.retract
	inc.retract = nil
	sim.SortPairs(out)
	return out
}

// Remove deletes the i-th tree from the stream: it no longer appears in the
// results of later Add calls. Positions are stable — later trees keep their
// indices. Removal is a tombstone (probes skip dead entries); once half the
// stream is dead the index is rebuilt from the survivors. Removing an
// out-of-range or already-removed position reports false.
func (inc *Incremental) Remove(i int) bool {
	if i < 0 || i >= len(inc.ts) || inc.removed[i] {
		return false
	}
	inc.removed[i] = true
	inc.nRemoved++
	// Retract the standing pairs the dead tree participated in. The scan is
	// O(|standing result|) — bounded by the result set, not the stream — and
	// feeds the Retracted delta.
	for k, d := range inc.standing {
		if int(k>>32) == i || int(uint32(k)) == i {
			delete(inc.standing, k)
			inc.retract = append(inc.retract, sim.Pair{I: int(k >> 32), J: int(uint32(k)), Dist: int(d)})
			inc.stats.PairsRetracted++
		}
	}
	// Release the payload; only the tombstone remains.
	inc.ts[i] = nil
	inc.views[i] = nil
	inc.bins[i] = nil
	inc.parts[i] = nil
	if inc.nRemoved >= inc.compactAt && inc.nRemoved*2 >= len(inc.ts) {
		inc.compact()
	}
	return true
}

// Update replaces the i-th tree: Remove(i) followed by Add(t). It returns
// the new tree's position (Len()-1 after the call) and its join partners
// among the live trees, serving the paper's "inserted and updated at a high
// rate" workload directly.
func (inc *Incremental) Update(i int, t *tree.Tree) (int, []sim.Pair) {
	inc.Remove(i)
	pairs := inc.Add(t)
	return len(inc.ts) - 1, pairs
}

// compact rebuilds the subgraph index and small-tree list from the live
// trees, dropping tombstoned postings. Positions are preserved. The next
// compaction fires only after as many further removals again, keeping the
// amortised rebuild cost linear.
func (inc *Incremental) compact() {
	start := time.Now()
	// Remove cleared the dead trees' slots.
	inc.ix = buildInvIndex(inc.opts.Tau, inc.opts.Position, len(inc.parts), 1, func(i int, _ *partitionState) *Partition { return inc.parts[i] })
	inc.smalls = inc.smalls[:0]
	for ti, p := range inc.parts {
		if p == nil && !inc.removed[ti] {
			inc.smalls = append(inc.smalls, ti)
		}
	}
	inc.compactAt = inc.nRemoved + inc.nRemoved/2 + 16
	inc.stats.PartitionTime += time.Since(start)
}

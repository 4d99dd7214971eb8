package core

import (
	"cmp"
	"context"
	"slices"
	"time"

	"treejoin/internal/engine"
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
// The stream grows an Index: Add appends to its trees, inserts into its
// small-tree list or its subgraph index, and finds and verifies partners with
// the one-tree probe Search runs (Index.probeVerify). A removed tree leaves the
// small-tree list at once; its postings stay in the index, screened out,
// until a compaction rebuilds it.
//
// Incremental is not safe for concurrent use; wrap it in a mutex if multiple
// goroutines add trees.
type Incremental struct {
	x     *Index
	parts []*Partition // the indexed trees' partitions, for compaction
	st    partitionState
	stats sim.Stats
	tc    ted.Counters // the default verifier's, folded into Stats

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
// (opts.Tau ≥ 0), drawing per-tree artifacts (binary views, δ-partitions, the
// verifier's arena views) from cache: a stream fed trees a corpus has already
// joined — or re-adding a tree it removed — skips their recomputation. A nil
// cache computes everything locally.
func NewIncrementalCached(opts Options, cache *engine.Cache) *Incremental {
	return &Incremental{
		x:         &Index{opts: opts, cache: cache, ix: newInvIndex(opts.Tau)},
		compactAt: 16,
		standing:  make(map[uint64]int32),
	}
}

// Len returns the number of trees added so far, including removed ones
// (positions are stable).
func (inc *Incremental) Len() int { return len(inc.x.ts) }

// Live returns the number of trees added and not yet removed.
func (inc *Incremental) Live() int { return len(inc.x.ts) - inc.nRemoved }

// Tree returns the i-th added tree, or nil if it has been removed.
func (inc *Incremental) Tree(i int) *tree.Tree { return inc.x.ts[i] }

// Stats returns a snapshot of the accumulated execution statistics.
func (inc *Incremental) Stats() sim.Stats {
	s := inc.stats
	s.Trees = len(inc.x.ts)
	sim.AddVerifyCounters(&s, &inc.tc)
	return s
}

// Add inserts t and returns all pairs (existing index, new index) whose TED
// is at most τ, sorted by existing index: the one-tree probe Search runs
// (Index.probeVerify), with the removed trees screened out. The new tree's
// index is Len()-1 after the call.
func (inc *Incremental) Add(t *tree.Tree) []sim.Pair {
	x := inc.x
	ti := len(x.ts)
	x.ts = append(x.ts, t)
	var view *ted.TreeView
	if x.opts.Verifier == nil {
		view = engine.ArenaFor(x.cache, []*tree.Tree{t}, 1)[0]
	}
	x.views = append(x.views, view)
	inc.parts = append(inc.parts, nil)
	inc.removed = append(inc.removed, false)
	b := cachedBin(x.cache, t)
	var pairs []sim.Pair
	x.probeVerify(context.Background(), t, b, view, func(j int32) bool { return !inc.removed[j] },
		sim.NormalizeWorkers(x.opts.Workers), &inc.stats, &inc.tc, func(pos, dist int) {
			pairs = append(pairs, sim.Pair{I: pos, J: ti, Dist: dist})
		})

	pStart := time.Now()
	if delta := x.opts.delta(); t.Size() >= delta {
		p := cachedPartition(x.cache, t, b, partitionCacheKey(delta), delta, &inc.st)
		inc.parts[ti] = p
		indexed := x.ix.n
		x.ix.insert(ti, p)
		inc.stats.IndexedSubgraphs += x.ix.n - indexed
	} else {
		at, _ := inc.small(ti)
		x.smalls = slices.Insert(x.smalls, at, int32(ti))
	}
	inc.stats.PartitionTime += time.Since(pStart)

	sim.SortPairs(pairs)
	inc.stats.Results += int64(len(pairs))
	for _, p := range pairs {
		inc.standing[standingKey(p.I, p.J)] = int32(p.Dist)
	}
	return pairs
}

// small returns where live tree i is, or belongs, in the small-tree list,
// and whether it is there.
func (inc *Incremental) small(i int) (int, bool) {
	ts, sz := inc.x.ts, inc.x.ts[i].Size()
	return slices.BinarySearchFunc(inc.x.smalls, int32(i), func(o, i int32) int {
		return cmp.Or(cmp.Compare(ts[o].Size(), sz), cmp.Compare(o, i))
	})
}

// Pairs returns the standing result set — every pair some Add reported whose
// trees are both still live — in canonical ascending (I, J) order. It is the
// self-join of the live trees at the stream's threshold, maintained across
// arbitrary Add/Remove/Update sequences without ever re-joining.
func (inc *Incremental) Pairs() []sim.Pair {
	out := make([]sim.Pair, 0, len(inc.standing))
	for k, d := range inc.standing {
		out = append(out, sim.Pair{I: int(k >> 32), J: int(uint32(k)), Dist: int(d)})
	}
	sim.SortPairs(out)
	return out
}

// Retracted drains the retraction delta: every standing pair withdrawn by
// Remove (and Update) calls since the previous drain, in canonical order. A
// consumer mirroring the result set applies Add's returned pairs as
// insertions and this delta as deletions; after both, its mirror equals
// Pairs(). Stats().PairsRetracted counts the retractions cumulatively.
func (inc *Incremental) Retracted() []sim.Pair {
	out := inc.retract
	inc.retract = nil
	sim.SortPairs(out)
	return out
}

// Remove deletes the i-th tree from the stream: it no longer appears in the
// results of later Add calls. Positions are stable — later trees keep their
// indices. A small tree leaves the small-tree list; an indexed tree's
// postings are a tombstone the probe screens out until, once half the stream
// is dead, the index is rebuilt from the survivors. Removing an out-of-range
// or already-removed position reports false.
func (inc *Incremental) Remove(i int) bool {
	if i < 0 || i >= len(inc.x.ts) || inc.removed[i] {
		return false
	}
	if at, ok := inc.small(i); ok {
		inc.x.smalls = slices.Delete(inc.x.smalls, at, at+1)
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
	inc.x.ts[i] = nil
	inc.x.views[i] = nil
	inc.parts[i] = nil
	if inc.nRemoved >= inc.compactAt && inc.nRemoved*2 >= len(inc.x.ts) {
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
	return len(inc.x.ts) - 1, pairs
}

// compact rebuilds the subgraph index from the live trees, dropping
// tombstoned postings. Positions are preserved. The next compaction fires
// only after as many further removals again, keeping the amortised rebuild
// cost linear.
func (inc *Incremental) compact() {
	start := time.Now()
	// Remove cleared the dead trees' slots.
	x := inc.x
	x.ix = buildInvIndex(x.opts.Tau, len(inc.parts), 1, func(i int, _ *partitionState) *Partition { return inc.parts[i] })
	inc.compactAt = inc.nRemoved + inc.nRemoved/2 + 16
	inc.stats.PartitionTime += time.Since(start)
}

package core

import (
	"strconv"
	"time"

	"treejoin/internal/engine"
	"treejoin/internal/lcrs"
	"treejoin/internal/tree"
)

// PartSJ as an engine candidate source: build, then probe. Algorithm 1 grows
// its index while it joins — probe tree k, insert tree k — which makes the
// loop one task and the index a by-product thrown away with the run. Here the
// index over a collection is built once, frozen, and shared (a corpus keeps
// it per epoch and threshold, for Search and KNN as much as for joins, and
// hands a join the one it probes), and the probing trees are cut into
// contiguous chunks that probe it from every worker at once. A self join's
// probe at order position k admits a posting only if its tree comes before k
// in the order (Collection.Bound's tie), so each probe sees precisely the
// postings the on-the-fly index held when Algorithm 1 reached it: candidates
// and the probe, match-test, match-hit and indexed-subgraph counters are those
// of the sequential loop, whatever the chunking. (The loop itself survives in
// the tests, as the oracle.)
//
// A cross join indexes its receiver A alone and builds nothing for the
// partner B: Lemma 2 holds whichever tree is partitioned, so every tree of B
// probes A's index over its two-sided size window [|T|−τ, |T|+τ], ties
// admitted — the probe Search runs for one query tree.
//
// Prefilters chained in front of this source run before the subgraph-match
// tests: the first time a probe encounters an indexed tree, the pair goes
// through the filter chain, and a pruned pair is stamped so none of its
// subgraph entries are ever match-tested — a cheap statistics screen (HIST)
// thus saves both match and verification work.

// NewSource returns the PartSJ inverted-subgraph-index candidate source that
// probes ix, the index of the run's indexed side (a self join's collection, a
// cross join's first one) at the run's threshold: Algorithm 1's candidates,
// the self join's pairs and a cross join's, each tree of the second side
// probing the first side's index so the Lemma 2 filter applies to cross pairs
// exactly as to self pairs. Trees smaller than δ = 2τ+1 nodes cannot be
// δ-partitioned (a δ-partitioning needs 2τ distinct edges); the paper does not
// discuss them. The index keeps them in a side list, paired by direct
// verification, which is cheap precisely because such trees are tiny. A nil ix
// offers nothing, for a run that has no index to probe.
func NewSource(ix *Index) engine.CandidateSource { return partSJSource{ix: ix} }

type partSJSource struct{ ix *Index }

func (s partSJSource) Name() string { return "partsj" }

// Tasks cuts the probing trees into contiguous chunks of about equal node
// counts (engine.ProbeChunks).
func (s partSJSource) Tasks(c *engine.Collection) []engine.Task {
	if s.ix == nil {
		return nil
	}
	return engine.ProbeChunks(c, func(ti int) int { return c.Trees[ti].Size() }, s.probe)
}

// probe gathers, for each probing tree at positions [lo, hi) of Probes, its
// candidate partners in the index up to the collection's Bound
// (Index.partners), the filter chain screening each pair before any
// subgraph-match test. The first chunk counts the index's subgraphs, once per
// run.
func (s partSJSource) probe(px *engine.Pipeline, lo, hi int) {
	stats, c := px.Stats(), px.Collection()
	if lo == 0 {
		stats.IndexedSubgraphs += s.ix.ix.n
	}
	start := time.Now()
	for _, ti := range c.Probes[lo:hi] {
		top, tie := c.Bound(ti)
		b := cachedBin(c.Cache(), c.Trees[ti])
		if s.ix.partners(c.Context(), b, top, int32(tie), stats,
			func(j int32) bool { return px.Screen(ti, int(j)) },
			func(j int32) { px.Emit(ti, int(j)) }) != nil {
			break
		}
	}
	stats.CandTime += time.Since(start)
}

// partitionCacheKey names the artifact-cache entry of a δ-partition.
func partitionCacheKey(delta int) string {
	return "partsj/delta=" + strconv.Itoa(delta)
}

// cachedBin returns t's left-child/right-sibling view from the artifact
// cache, building and storing it on a miss. The single lookup-or-build path
// for every PartSJ consumer (join probes, index build, incremental stream);
// a nil cache degrades to a plain build.
func cachedBin(cache *engine.Cache, t *tree.Tree) *lcrs.Bin {
	if v, ok := cache.Lookup("lcrs", t); ok {
		return v.(*lcrs.Bin)
	}
	b := lcrs.Build(t)
	cache.Store("lcrs", t, b)
	return b
}

// partCuts is what the artifact cache keeps of a δ-partition: γ and the cut
// roots, the product of the MaxMinSize search. The component labelling — four
// bytes a node, per threshold — is reassembled from them in one pass on a hit:
// it is needed only while an index is being built, and the index is what a
// corpus retains.
type partCuts struct {
	gamma int
	cuts  []int32
}

// cachedPartition returns t's δ-partition (the tree must have ≥ δ nodes),
// from the cuts in the artifact cache or, on a miss, computed — over b when
// the caller already has the binary view in hand, otherwise over the cached
// one. partKey must be partitionCacheKey(delta); st is the caller's
// partitioning scratch.
func cachedPartition(cache *engine.Cache, t *tree.Tree, b *lcrs.Bin, partKey string, delta int, st *partitionState) *Partition {
	if b == nil {
		b = cachedBin(cache, t)
	}
	if v, ok := cache.Lookup(partKey, t); ok {
		p := assemble(b, delta, v.(partCuts).cuts)
		p.Gamma = v.(partCuts).gamma
		return p
	}
	p := compute(b, delta, st)
	cache.Store(partKey, t, partCuts{gamma: p.Gamma, cuts: p.Roots[:delta-1]})
	return p
}

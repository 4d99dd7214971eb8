package engine

import (
	"treejoin/internal/sim"
	"treejoin/internal/ted"
	"treejoin/internal/tree"
)

// prepKey names the per-tree Zhang–Shasha preparation artifact in the
// corpus cache: postorder labels, leftmost-leaf indices and keyroots of both
// the left- and right-path decompositions, the strategy costs, and the
// sorted label multiset (ted.Prep). Like every per-tree signature it is
// τ-independent, so a warm corpus never re-runs prepare whatever threshold
// or method a later join picks.
const prepKey = "ted/prep"

// PrepFor returns the cached verifier preparation of t, computing and
// caching it on first use. A nil cache computes a fresh preparation.
func PrepFor(c *Cache, t *tree.Tree) *ted.Prep {
	if v, ok := c.Lookup(prepKey, t); ok {
		return v.(*ted.Prep)
	}
	p := ted.NewPrep(t)
	c.Store(prepKey, t, p)
	return p
}

// NewTEDVerifier returns the default candidate verifier: the τ-banded,
// early-terminating bounded TED over cached preparations. tc, when non-nil,
// accumulates the verifier's pruning counters (it is safe to share across
// workers); the engine folds them into the run's Stats.
func NewTEDVerifier(c *Cache, tc *ted.Counters) sim.Verifier {
	return func(t1, t2 *tree.Tree, tau int) (int, bool) {
		return ted.DistanceBoundedPrep(PrepFor(c, t1), PrepFor(c, t2), tau, tc)
	}
}

// ArenaKey names the per-tree struct-of-arrays verification view in the
// corpus cache (ted.TreeView): the postorder label/lml arrays of both
// decompositions, keyroots in both orders, structural arrays, sorted labels,
// and strategy costs. τ-independent like every signature, so a warm corpus
// verifies any later join out of the same arenas.
const ArenaKey = "ted/arena"

// ArenaFor returns the arena views of the collection, in order, serving each
// tree from the cache and flattening the misses in at most workers contiguous
// BuildViews batches, one block each, built side by side (the arena's
// locality comes from batching; per-tree builds would scatter the blocks). A
// nil cache degrades to a plain batch build.
func ArenaFor(c *Cache, ts []*tree.Tree, workers int) []*ted.TreeView {
	return cachedBatch(c, ArenaKey, ts, workers, ted.BuildViews)
}

// arenaVerifier is one worker's batched arena verification context: the
// collection's views resolved once at construction (lock-free per candidate —
// a mutex-guarded cache lookup per pair would serialise the workers), plus
// the worker-private DP scratch that makes every VerifyPair allocation-free.
type arenaVerifier struct {
	views []*ted.TreeView
	s     *ted.VerifyScratch
	tc    *ted.Counters
}

func (v *arenaVerifier) VerifyPair(i, j, tau int) (int, bool) {
	return ted.DistanceBoundedView(v.views[i], v.views[j], tau, v.s, v.tc)
}

func (v *arenaVerifier) Close() {
	ted.ReleaseScratch(v.s)
	v.s = nil
}

// NewArenaVerifiers builds the default batched verifier factory over a fixed
// collection: arena views are resolved through the cache once, up front, and
// every minted verifier shares them, adding only a pooled per-worker scratch.
// tc, when non-nil, accumulates pruning and strategy counters across all
// workers; the engine folds them into the run's Stats.
func NewArenaVerifiers(ts []*tree.Tree, c *Cache, workers int, tc *ted.Counters) sim.BatchVerifierFactory {
	views := ArenaFor(c, ts, workers)
	return func() sim.BatchVerifier {
		return &arenaVerifier{views: views, s: ted.AcquireScratch(), tc: tc}
	}
}

// FullTEDVerifier is the Job.VerifierFor hook that forces the pre-banding
// verifier — size lower bound, then the full (unbanded) Zhang–Shasha DP — on
// every candidate. It backs the public WithUnbandedVerification ablation
// option and the verify benchmarks' baseline; results are identical to the
// banded verifier, only slower.
func FullTEDVerifier(c *Collection) sim.Verifier {
	cache := c.Cache()
	return func(t1, t2 *tree.Tree, tau int) (int, bool) {
		return ted.DistanceBoundedPrepFull(PrepFor(cache, t1), PrepFor(cache, t2), tau)
	}
}

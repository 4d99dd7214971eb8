package engine

import (
	"treejoin/internal/sim"
	"treejoin/internal/ted"
	"treejoin/internal/tree"
)

// ArenaKey names the per-tree struct-of-arrays verification view in the
// corpus cache (ted.TreeView): the postorder label/lml arrays and keyroots of
// both decompositions, sorted labels, and strategy costs. τ-independent like every signature, so a warm corpus
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

// arenaVerifier is one worker's batched arena verification context: views
// indexed like the candidates, resolved before the batch (lock-free per
// candidate — a mutex-guarded cache lookup per pair would serialise the
// workers), plus the worker-private DP scratch that makes every VerifyPair
// allocation-free.
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

// NewArenaVerifiers builds the default batched verifier factory over views
// (ArenaFor's, in collection order): every minted verifier shares them,
// adding only a pooled per-worker scratch. tc, when non-nil, accumulates
// pruning and strategy counters across all workers; the engine folds them
// into the run's Stats.
func NewArenaVerifiers(views []*ted.TreeView, tc *ted.Counters) sim.BatchVerifierFactory {
	return func() sim.BatchVerifier {
		return &arenaVerifier{views: views, s: ted.AcquireScratch(), tc: tc}
	}
}

package core

import (
	"treejoin/internal/engine"
	"treejoin/internal/sim"
	"treejoin/internal/strdist"
	"treejoin/internal/tree"
)

// Hybrid verification (an extension beyond the paper): before running the
// bounded TED on a candidate pair, screen it with the τ-banded string edit
// distance of the trees' preorder and postorder label sequences — both TED
// lower bounds (the STR baseline's filter), each costing only O(τ·n). The
// subgraph filter's surviving false positives are typically pairs just past
// the threshold (near-duplicates with a few extra edits), exactly the pairs
// a tight cheap lower bound rejects. Results are unchanged; only
// verification time drops. Enable with Options.HybridVerify.

// seqKey names the artifact-cache entry holding a tree's traversal label
// sequences for the hybrid screen.
const seqKey = "hybrid/traversals"

// travSeqs is the per-tree hybrid signature: both traversal label sequences.
type travSeqs struct {
	pre, post []int32
}

func computeSeqs(t *tree.Tree) travSeqs {
	return travSeqs{
		pre:  tree.LabelSeq(t, tree.Preorder(t)),
		post: tree.LabelSeq(t, tree.Postorder(t)),
	}
}

// within reports whether both string lower bounds leave the pair a chance of
// TED ≤ tau.
func (s travSeqs) within(o travSeqs, tau int) bool {
	return strdist.Bounded(s.pre, o.pre, tau) <= tau && strdist.Bounded(s.post, o.post, tau) <= tau
}

// hybridVerifier is one worker's hybrid verification context: the string
// screens over sequences indexed like the candidates, then the worker's arena
// verifier for the pairs they let through.
type hybridVerifier struct {
	seqs  []travSeqs
	arena sim.BatchVerifier
}

func (h hybridVerifier) VerifyPair(i, j, tau int) (int, bool) {
	if !h.seqs[i].within(h.seqs[j], tau) {
		return tau + 1, false
	}
	return h.arena.VerifyPair(i, j, tau)
}

func (h hybridVerifier) Close() { h.arena.Close() }

// hybridVerifiers puts the string screens in front of every verifier arena
// mints; seqs and the arena's views are indexed alike.
func hybridVerifiers(seqs []travSeqs, arena sim.BatchVerifierFactory) sim.BatchVerifierFactory {
	return func() sim.BatchVerifier { return hybridVerifier{seqs: seqs, arena: arena()} }
}

// HybridVerifier returns the hybrid verification stage over a run's
// collection, with both the sequences and the arena views drawn from the
// run's artifact cache. It is the engine Job.VerifierFor hook behind
// Options.HybridVerify.
func HybridVerifier(c *engine.Collection) sim.BatchVerifierFactory {
	seqs := engine.Cached(c.Cache(), seqKey, c.Trees, computeSeqs)
	views := engine.ArenaFor(c.Cache(), c.Trees, c.Workers)
	return hybridVerifiers(seqs, engine.NewArenaVerifiers(views, c.VerifyCounters()))
}

package core

import (
	"context"
	"fmt"

	"treejoin/internal/engine"
	"treejoin/internal/sim"
	"treejoin/internal/tree"
)

// Options configures a PartSJ join.
type Options struct {
	// Tau is the TED threshold τ ≥ 0. Each tree is split into δ = 2τ+1
	// subgraphs.
	Tau int
	// Position selects the postorder-pruning variant (default PositionSafe).
	Position PositionFilter
	// RandomPartition replaces the balanced MaxMinSize partitioning with
	// δ−1 random bridging edges; used by the partitioning-scheme ablation.
	RandomPartition bool
	// Seed seeds the random partitioner (ignored unless RandomPartition).
	Seed int64
	// Verifier decides candidate pairs; nil means the τ-banded bounded TED
	// over cached arena views.
	Verifier sim.Verifier
	// Workers parallelises the index build, the probe chunks and TED
	// verification. 1 runs sequentially; values below 1 ("unset") are
	// normalized to runtime.GOMAXPROCS(0).
	Workers int
	// Indexes, when non-nil, resolves the shared frozen index of one side of
	// a join (0: the collection of a self join or side A of a cross join, 1:
	// side B) at threshold tau and the options' position mode — a corpus's
	// per-epoch index, composed from the indexes Search and KNN probe. built
	// reports that this call paid for the build. The source probes the index
	// only if it covers exactly that side's trees and builds a private one
	// otherwise (nil included), so a stale or foreign index can never produce
	// wrong candidates. Ignored under RandomPartition and by Incremental.
	Indexes func(ctx context.Context, side, tau int) (ix *Index, built bool)
}

func (o Options) delta() int { return 2*o.Tau + 1 }

func (o Options) validate() error {
	if o.Tau < 0 {
		return fmt.Errorf("core: negative threshold %d", o.Tau)
	}
	return nil
}

// Job assembles the engine job for a PartSJ execution: the inverted subgraph
// index as the candidate source, with prefilters (if any) ahead of it.
func (o Options) Job(filters []engine.PairFilter) engine.Job {
	job := engine.Job{
		Source:   NewSource(o),
		Filters:  filters,
		Tau:      o.Tau,
		Verifier: o.Verifier,
		Workers:  o.Workers,
	}
	// PartSJ's candidate source is its own subgraph index — never a planner
	// choice — so every PartSJ run carries this fixed plan record.
	job.Plan = sim.PlanRecord{Source: "partsj", Chain: make([]string, len(filters)), Origin: "fixed"}
	for i, f := range filters {
		job.Plan.Chain[i] = f.Name()
	}
	return job
}

// SelfJoin implements Algorithm 1 (PartSJ): it reports every pair of trees in
// ts with TED ≤ opts.Tau, in canonical (I, J) order, together with execution
// statistics. Trees must share a label table. The index over subgraphs is
// built at the start of the join (see source.go); no preprocessing is
// required.
//
// Trees smaller than δ = 2τ+1 nodes cannot be δ-partitioned (a δ-partitioning
// needs 2τ distinct edges); the paper does not discuss them. They are kept in
// a side list and paired by direct verification, which is cheap precisely
// because such trees are tiny.
func SelfJoin(ts []*tree.Tree, opts Options) ([]sim.Pair, *sim.Stats) {
	if err := opts.validate(); err != nil {
		panic(err)
	}
	return opts.Job(nil).SelfJoin(ts)
}

// Join reports every cross pair (a ∈ A, b ∈ B) with TED ≤ opts.Tau. Pair.I
// indexes into A and Pair.J into B. Both collections must share one label
// table. The engine processes the union of the collections in ascending
// size order, each tree probing the opposite side's subgraph index, so the
// Lemma 2 filter applies to every cross pair exactly as in the self join.
func Join(a, b []*tree.Tree, opts Options) ([]sim.Pair, *sim.Stats) {
	if err := opts.validate(); err != nil {
		panic(err)
	}
	return opts.Job(nil).Join(a, b)
}

package core

import (
	"context"

	"treejoin/internal/engine"
	"treejoin/internal/sim"
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
	// Indexes, when non-nil, resolves the shared frozen index of the join's
	// indexed side (a self join's collection, a cross join's receiver A,
	// which B's trees probe) at threshold tau and the options' position mode
	// — a corpus's per-epoch index, composed from the indexes Search and KNN
	// probe. built reports that this call paid for the build. The source
	// probes the index only if it covers exactly those trees and builds a
	// private one otherwise (nil included), so a stale or foreign index can
	// never produce wrong candidates. Ignored under RandomPartition and by
	// Incremental.
	Indexes func(ctx context.Context, tau int) (ix *Index, built bool)
}

func (o Options) delta() int { return 2*o.Tau + 1 }

// Job assembles the engine job for a PartSJ execution (Algorithm 1): the
// inverted subgraph index as the candidate source, with prefilters (if any)
// ahead of it. Its SelfJoin reports every pair of trees with TED ≤ o.Tau, its
// Join every cross pair, each tree of the second side probing the first
// side's index so the Lemma 2 filter applies to cross pairs exactly as to
// self pairs. Trees
// smaller than δ = 2τ+1 nodes cannot be δ-partitioned (a δ-partitioning needs
// 2τ distinct edges); the paper does not discuss them. They are kept in a side
// list and paired by direct verification, which is cheap precisely because
// such trees are tiny. o.Tau must not be negative.
func (o Options) Job(filters []engine.PairFilter) engine.Job {
	job := engine.Job{
		Source:   NewSource(o),
		Filters:  filters,
		Tau:      o.Tau,
		Verifier: o.Verifier,
		Workers:  o.Workers,
	}
	// PartSJ's candidate source is its own subgraph index, so every PartSJ
	// run carries this plan record.
	job.Plan = sim.PlanRecord{Source: "partsj", Chain: make([]string, len(filters))}
	for i, f := range filters {
		job.Plan.Chain[i] = f.Name()
	}
	return job
}

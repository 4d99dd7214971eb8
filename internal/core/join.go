package core

import (
	"context"

	"treejoin/internal/sim"
)

// Options configures a PartSJ join.
type Options struct {
	// Tau is the TED threshold τ ≥ 0. Each tree is split into δ = 2τ+1
	// subgraphs.
	Tau int
	// Verifier decides candidate pairs; nil means the τ-banded bounded TED
	// over cached arena views.
	Verifier sim.Verifier
	// Workers parallelises the index build, the probe chunks and TED
	// verification. 1 runs sequentially; values below 1 ("unset") are
	// normalized to runtime.GOMAXPROCS(0).
	Workers int
	// Indexes, when non-nil, resolves the shared frozen index of the join's
	// indexed side (a self join's collection, a cross join's receiver A,
	// which B's trees probe) at threshold tau — a corpus's per-epoch index,
	// composed from the indexes Search and KNN probe. built reports that this
	// call paid for the build. The source probes the index only if it covers
	// exactly those trees and builds a private one otherwise (nil included),
	// so a stale or foreign index can never produce wrong candidates. Ignored
	// by Incremental.
	Indexes func(ctx context.Context, tau int) (ix *Index, built bool)
}

func (o Options) delta() int { return 2*o.Tau + 1 }

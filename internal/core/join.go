package core

import "treejoin/internal/sim"

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
}

func (o Options) delta() int { return 2*o.Tau + 1 }

package sim_test

import (
	"context"
	"fmt"
	"testing"

	"treejoin/internal/sim"
	"treejoin/internal/synth"
	"treejoin/internal/ted"
	"treejoin/internal/tree"
)

// The verify-stage benchmark: the whole stage as the engine runs it —
// candidate take, verifier dispatch, pair delivery — not just the kernel.
// internal/ted's BenchmarkVerifyArena isolates the DP over the same candidate
// stream; these measure what a join's verify phase costs end to end.

// stageWorkload mirrors internal/ted's verifyWorkload (same generator
// parameters and seed), so stage and kernel numbers describe one candidate
// stream: 276 unordered pairs over a clustered 24-tree collection.
func stageWorkload() ([]*tree.Tree, []sim.Candidate) {
	ts := synth.Generate(synth.Params{
		N: 24, AvgSize: 56, MaxFanout: 4, MaxDepth: 10, Labels: 16,
		DepthBias: 0.1, Cluster: 4, Decay: 0.04, Seed: 17,
	})
	var cands []sim.Candidate
	for i := range ts {
		for j := i + 1; j < len(ts); j++ {
			cands = append(cands, sim.Candidate{I: i, J: j})
		}
	}
	return ts, cands
}

func drain(p sim.Pair) bool { return true }

// BenchmarkVerifyStageArena is the batched arena stage: per-worker
// BatchVerifier over struct-of-arrays views, chunked candidate take, scratch
// held for the whole run, on one worker; the stage parallelises by minting
// one verifier per worker (see BenchmarkVerifyStageArenaParallel).
func BenchmarkVerifyStageArena(b *testing.B) {
	ts, cands := stageWorkload()
	views := ted.BuildViews(ts)
	var tc ted.Counters
	factory := func() sim.BatchVerifier { return arenaBatch{views: views, s: ted.AcquireScratch(), tc: &tc} }
	for _, tau := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("tau=%d", tau), func(b *testing.B) {
			b.ReportAllocs()
			ctx := context.Background()
			for i := 0; i < b.N; i++ {
				var st sim.Stats
				sim.VerifyStreamBatched(ctx, cands, tau, factory, 1, &st, drain)
			}
		})
	}
}

// BenchmarkVerifyStageArenaParallel is the batched arena stage at the worker
// counts a join actually runs with. On a single-core machine this measures
// scheduling overhead, not speedup.
func BenchmarkVerifyStageArenaParallel(b *testing.B) {
	ts, cands := stageWorkload()
	views := ted.BuildViews(ts)
	var tc ted.Counters
	factory := func() sim.BatchVerifier { return arenaBatch{views: views, s: ted.AcquireScratch(), tc: &tc} }
	const tau = 8
	for _, workers := range []int{2, 4} {
		b.Run(fmt.Sprintf("w=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			ctx := context.Background()
			for i := 0; i < b.N; i++ {
				var st sim.Stats
				sim.VerifyStreamBatched(ctx, cands, tau, factory, workers, &st, drain)
			}
		})
	}
}

// arenaBatch duplicates the engine's arena BatchVerifier here (sim cannot
// import engine — engine imports sim), with identical per-pair work.
type arenaBatch struct {
	views []*ted.TreeView
	s     *ted.VerifyScratch
	tc    *ted.Counters
}

func (v arenaBatch) VerifyPair(i, j, tau int) (int, bool) {
	return ted.DistanceBoundedView(v.views[i], v.views[j], tau, v.s, v.tc)
}

func (v arenaBatch) Close() { ted.ReleaseScratch(v.s) }

package ted_test

import (
	"fmt"
	"testing"

	"treejoin/internal/synth"
	"treejoin/internal/ted"
	"treejoin/internal/tree"
)

// Micro-benchmarks of the TED substrate: the cubic verifier dominates every
// join method's verification phase, so its constants matter for all of
// Figures 10–14.

func benchPair(profile string, size int) (*tree.Tree, *tree.Tree) {
	var ts []*tree.Tree
	switch profile {
	case "flat":
		ts = synth.Generate(synth.Params{
			N: 2, AvgSize: size, MaxFanout: 12, MaxDepth: 4, Labels: 40,
			DepthBias: -0.3, Cluster: 1, Seed: 7})
	case "deep":
		ts = synth.Generate(synth.Params{
			N: 2, AvgSize: size, MaxFanout: 2, MaxDepth: 60, Labels: 5,
			DepthBias: 0.8, Cluster: 1, Seed: 7})
	default:
		ts = synth.Generate(synth.Params{
			N: 2, AvgSize: size, MaxFanout: 3, MaxDepth: 8, Labels: 20,
			DepthBias: 0, Cluster: 1, Seed: 7})
	}
	return ts[0], ts[1]
}

func BenchmarkZhangShasha(b *testing.B) {
	for _, profile := range []string{"flat", "deep", "bushy"} {
		for _, size := range []int{32, 64, 128} {
			t1, t2 := benchPair(profile, size)
			b.Run(fmt.Sprintf("%s/n=%d", profile, size), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					ted.ZhangShasha(t1, t2)
				}
			})
		}
	}
}

func BenchmarkHybridStrategyChoice(b *testing.B) {
	// The hybrid should never be much slower than the better of the two
	// fixed strategies; compare on a left-deep shape where they diverge.
	t1, t2 := benchPair("deep", 96)
	b.Run("left", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ted.ZhangShasha(t1, t2)
		}
	})
	b.Run("right", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ted.ZhangShasha(ted.Mirror(t1), ted.Mirror(t2))
		}
	})
	b.Run("hybrid", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ted.Distance(t1, t2)
		}
	})
}

func BenchmarkDistanceBounded(b *testing.B) {
	t1, t2 := benchPair("bushy", 80)
	for _, tau := range []int{1, 5} {
		b.Run(fmt.Sprintf("tau=%d", tau), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ted.DistanceBounded(t1, t2, tau)
			}
		})
	}
}

// verifyWorkload builds the verification benchmarks' candidate stream: a
// clustered collection (near-duplicates plus cross-cluster pairs — the mix a
// subgraph or signature filter hands the verifier) flattened into arena views
// once, as a warm engine join holds them, and every unordered pair as a
// candidate.
func verifyWorkload() ([]*ted.TreeView, [][2]int) {
	ts := synth.Generate(synth.Params{
		N: 24, AvgSize: 56, MaxFanout: 4, MaxDepth: 10, Labels: 16,
		DepthBias: 0.1, Cluster: 4, Decay: 0.04, Seed: 17,
	})
	var pairs [][2]int
	for i := range ts {
		for j := i + 1; j < len(ts); j++ {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	return ted.BuildViews(ts), pairs
}

// BenchmarkVerifyArena is the strategy-driven arena verifier (struct-of-arrays
// views, lower bounds, keyroot windows, band-compacted int16 DP with early
// termination, per-batch scratch) over the candidate stream. Allocations per
// op must stay zero. The rig's ted.verify_ns_per_pair is the same kernel on
// a join's real candidates.
func BenchmarkVerifyArena(b *testing.B) {
	views, pairs := verifyWorkload()
	for _, tau := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("tau=%d", tau), func(b *testing.B) {
			b.ReportAllocs()
			var tc ted.Counters
			s := ted.AcquireScratch()
			defer ted.ReleaseScratch(s)
			for i := 0; i < b.N; i++ {
				for _, p := range pairs {
					ted.DistanceBoundedView(views[p[0]], views[p[1]], tau, s, &tc)
				}
			}
		})
	}
}

// BenchmarkVerifyArenaRejects is the verifier on 200-node near-duplicate
// cluster mates, in two cases: the pairs a filter's false positives are made
// of — distance just past τ (within 6 of it), so the size and label bounds
// pass them and the traversal-string screen or the DP has to say no — and the
// accepted ones (d ≤ τ), which the certificate or the DP settles.
func BenchmarkVerifyArenaRejects(b *testing.B) {
	p := synth.SyntheticParams(72, 4, 8, 20, 200, 2015)
	p.Cluster, p.Decay = 36, 0.03
	views := ted.BuildViews(synth.Generate(p))
	s := ted.AcquireScratch()
	defer ted.ReleaseScratch(s)
	for _, tau := range []int{6, 8} {
		var rejects, accepts [][2]int
		for i := range views {
			for j := i + 1; j < len(views); j++ {
				if d, ok := ted.DistanceBoundedView(views[i], views[j], tau+6, s, nil); ok && d > tau {
					rejects = append(rejects, [2]int{i, j})
				} else if ok {
					accepts = append(accepts, [2]int{i, j})
				}
			}
		}
		for c, pairs := range [][][2]int{rejects, accepts} {
			b.Run(fmt.Sprintf("tau=%d/%s=%d", tau, []string{"rejects", "accepts"}[c], len(pairs)), func(b *testing.B) {
				b.ReportAllocs()
				var tc ted.Counters
				for i := 0; i < b.N; i++ {
					for _, p := range pairs {
						ted.DistanceBoundedView(views[p[0]], views[p[1]], tau, s, &tc)
					}
				}
				n := float64(b.N * len(pairs))
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/pair")
				b.ReportMetric(float64(tc.SeqRejects.Load())/n, "screened/pair")
				b.ReportMetric(float64(tc.Certified.Load())/n, "certified/pair")
			})
		}
	}
}

// BenchmarkVerifyArenaStrategy ablates the per-pair decomposition choice at a
// fixed τ: forced-left, forced-right, and the strategy-driven pick. The pick
// should track the better forced direction within noise.
func BenchmarkVerifyArenaStrategy(b *testing.B) {
	views, pairs := verifyWorkload()
	const tau = 4
	for _, mode := range []struct {
		name string
		dec  ted.Decomp
	}{{"left", ted.DecompLeft}, {"right", ted.DecompRight}, {"auto", ted.DecompAuto}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			s := ted.AcquireScratch()
			defer ted.ReleaseScratch(s)
			for i := 0; i < b.N; i++ {
				for _, p := range pairs {
					ted.DistanceBoundedViewDecomp(views[p[0]], views[p[1]], tau, mode.dec, s, nil)
				}
			}
		})
	}
}

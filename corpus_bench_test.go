package treejoin_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"treejoin"
	"treejoin/internal/core"
	"treejoin/internal/engine"
	"treejoin/internal/synth"
)

// BenchmarkSelfJoinParts: a warm τ=2 PartSJ SelfJoin over the 3 000 boot
// trees of a serve-mixed run (seed 31), on one part and on four. Either way
// the join probes one index once, so the two should cost alike. "compose"
// times putting four warm part indexes together against building the
// whole-membership index from warm partitions.
func BenchmarkSelfJoinParts(b *testing.B) {
	ctx := context.Background()
	// The rig's draw: seeded clusters of four from a fixed universe, less each's last.
	universe, rng := synth.Synthetic(8000, 2015), rand.New(rand.NewSource(31))
	var ts []*treejoin.Tree
	for _, c := range rng.Perm(len(universe) / 4)[:1000] {
		ts = append(ts, universe[4*c:4*c+3]...)
	}
	for _, n := range []int{1, 4} {
		b.Run(fmt.Sprintf("parts=%d", n), func(b *testing.B) {
			cp, _ := treejoin.NewSharded(n, ts)
			cp.SelfJoin(ctx, 2) // warms the artifacts and indexes
			b.ResetTimer()
			for range b.N {
				if _, _, err := cp.SelfJoin(ctx, 2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("compose", func(b *testing.B) {
		cache, opts := engine.NewCache(), core.Options{Tau: 2}
		core.NewIndexCached(ts, opts, cache) // warms every partition
		at, subs, parts := make([][]int32, 4), make([][]*treejoin.Tree, 4), make([]*core.Index, 4)
		for i, t := range ts {
			at[i%4], subs[i%4] = append(at[i%4], int32(i)), append(subs[i%4], t)
		}
		for k := range parts {
			parts[k] = core.NewIndexCached(subs[k], opts, cache)
		}
		var build, compose time.Duration
		b.ResetTimer()
		for range b.N {
			t0 := time.Now()
			core.NewIndexCached(ts, opts, cache)
			t1 := time.Now()
			core.Compose(ts, at, func(k int) *core.Index { return parts[k] })
			build, compose = build+t1.Sub(t0), compose+time.Since(t1)
		}
		b.ReportMetric(build.Seconds()*1e3/float64(b.N), "build-ms/op")
		b.ReportMetric(compose.Seconds()*1e3/float64(b.N), "compose-ms/op")
		b.ReportMetric(float64(compose)/float64(build), "compose/build")
	})
}

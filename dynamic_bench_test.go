// BenchmarkDynamicUpdate quantifies the dynamic Corpus under mutation.
// "incremental" is one Update (Remove + Add + delta) against a standing
// 2000-tree incremental join — the maintained-result path. "corpus-churn" is
// what a mutation costs a corpus that joins with the signature methods: one
// Remove + Add on a 2000-tree corpus, then the first STR and SET join of the
// new epoch, each of which rebuilds its frozen token index from the cached
// bags (index-build-ns/op, the two builds together). The write path keeps no
// token index, so the mutation itself (mutate-ns/op, mutate-B/op) costs what it costs a corpus that never ran a
// token join (the nojoin- metrics, measured on a twin that only ran PartSJ).
// "rebuild" is the alternative: build a fresh corpus over the same 2000 trees
// and re-run the self join from scratch.
package treejoin_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"treejoin"
	"treejoin/internal/synth"
)

func BenchmarkDynamicUpdate(b *testing.B) {
	ctx := context.Background()
	ts := engineBenchCorpus() // the shared 2000-tree synthetic corpus

	b.Run("incremental", func(b *testing.B) {
		cp, _ := treejoin.NewCorpus(nil)
		inc, _ := cp.Incremental(2)
		for _, t := range ts {
			inc.Add(t)
		}
		live := make([]int, len(ts))
		for i := range live {
			live[i] = i
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := (i * 13) % len(live)
			t := inc.Tree(live[k])
			np, _ := inc.Update(live[k], t)
			inc.Retracted()
			live[k] = np
		}
	})

	b.Run("corpus-churn", func(b *testing.B) {
		// The default plan runs the token index, which each mutation's new
		// epoch rebuilds.
		var build time.Duration
		tokenJoins := func(cp *treejoin.Corpus) {
			for _, m := range []treejoin.Method{treejoin.MethodSTR, treejoin.MethodSET} {
				_, st, err := cp.SelfJoin(ctx, 1, treejoin.WithMethod(m))
				if err != nil {
					b.Fatal(err)
				}
				build += st.IndexBuildTime
			}
		}
		// mutate removes and re-adds one tree, returning the time and bytes
		// the two calls took.
		mutate := func(cp *treejoin.Corpus, i int) (time.Duration, uint64) {
			var before, after runtime.MemStats
			p := (i * 13) % cp.Len()
			id, t := cp.ID(p), cp.Tree(p)
			runtime.ReadMemStats(&before)
			start := time.Now()
			cp.Remove(id)
			if _, err := cp.Add(t); err != nil {
				b.Fatal(err)
			}
			d := time.Since(start)
			runtime.ReadMemStats(&after)
			return d, after.TotalAlloc - before.TotalAlloc
		}
		var cps [2]*treejoin.Corpus // [0] joins with STR and SET, [1] never does
		for i := range cps {
			cp, err := treejoin.NewCorpus(ts)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := cp.SelfJoin(ctx, 1); err != nil { // both keep arena views live
				b.Fatal(err)
			}
			cps[i] = cp
		}
		tokenJoins(cps[0])
		var ns [2]time.Duration
		var bytes [2]uint64
		build = 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			d, n := mutate(cps[1], i)
			ns[1], bytes[1] = ns[1]+d, bytes[1]+n
			b.StartTimer()
			d, n = mutate(cps[0], i)
			ns[0], bytes[0] = ns[0]+d, bytes[0]+n
			tokenJoins(cps[0])
		}
		b.ReportMetric(float64(build.Nanoseconds())/float64(b.N), "index-build-ns/op")
		b.ReportMetric(float64(ns[0].Nanoseconds())/float64(b.N), "mutate-ns/op")
		b.ReportMetric(float64(bytes[0])/float64(b.N), "mutate-B/op")
		b.ReportMetric(float64(ns[1].Nanoseconds())/float64(b.N), "nojoin-mutate-ns/op")
		b.ReportMetric(float64(bytes[1])/float64(b.N), "nojoin-mutate-B/op")
	})

	b.Run("rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cp, err := treejoin.NewCorpus(ts)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := cp.SelfJoin(ctx, 2); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCorpusMutate is the write path at steady state, on a one-part and
// on a four-part corpus: 3 000 live Treebank trees, and 27 000 cycles that each
// add one tree and remove the oldest (one benchmark iteration is the whole
// run; CI smokes it with -benchtime 1x). add-ns and remove-ns are the mean cost
// of one call; the first-/last- pairs are the same over the first and the last
// 1 000 cycles, and heap-drift-B is how much the live heap grew between those
// two windows — a write path that accumulates anything per mutation shows up
// in either.
func BenchmarkCorpusMutate(b *testing.B) {
	const live, cycles, window = 3000, 27000, 1000
	pool := synth.Treebank(live+1, 7) // one more than is live: the tree added is never an alias
	heap := func() float64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	}
	for _, parts := range []int{1, 4} {
		b.Run(fmt.Sprintf("parts=%d", parts), func(b *testing.B) {
			var total, first, last [2]time.Duration // of the Add calls [0] and the Remove calls [1]
			var drift float64
			for range b.N {
				cp, err := treejoin.NewSharded(parts, pool[:live])
				if err != nil {
					b.Fatal(err)
				}
				var settled float64
				for c := range cycles {
					start := time.Now()
					if _, err := cp.Add(pool[(c+live)%len(pool)]); err != nil {
						b.Fatal(err)
					}
					mid := time.Now()
					if cp.Remove(c) != 1 {
						b.Fatalf("cycle %d: the oldest tree was not removed", c)
					}
					d := [2]time.Duration{mid.Sub(start), time.Since(mid)}
					for k := range d {
						total[k] += d[k]
						if c < window {
							first[k] += d[k]
						} else if c >= cycles-window {
							last[k] += d[k]
						}
					}
					if c == window-1 {
						settled = heap()
					}
				}
				drift += heap() - settled
			}
			per := func(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n*b.N) }
			b.ReportMetric(per(total[0], cycles), "add-ns")
			b.ReportMetric(per(total[1], cycles), "remove-ns")
			b.ReportMetric(per(first[0], window), "first-add-ns")
			b.ReportMetric(per(last[0], window), "last-add-ns")
			b.ReportMetric(per(first[1], window), "first-remove-ns")
			b.ReportMetric(per(last[1], window), "last-remove-ns")
			b.ReportMetric(drift/float64(b.N), "heap-drift-B")
		})
	}
}

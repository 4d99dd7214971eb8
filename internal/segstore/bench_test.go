package segstore

import (
	"slices"
	"testing"
	"time"

	"treejoin/internal/synth"
)

// BenchmarkStoreIngestChurn is the benchmark rig's store-churn ingest loop at
// the store's own level: 15 000 Treebank-profile trees added in batches of 8
// with fsync off and the default budget, and from tree 2000 on every Add
// followed by a Remove of the oldest live batch, flushes and merges in the
// background as in production. Besides trees/s it reports the per-Add p50 and
// p99 — a flush that blocked its writer shows as a p99 far above the p50 —
// and the share of the wall clock the writer spent stalled. Run at -cpu 1,2:
// with one core the pipeline has no idle CPU to build on and only the cheaper
// encoder and the batched WAL write are left.
func BenchmarkStoreIngestChurn(b *testing.B) {
	const n, batch, churnFrom = 15000, 8, 2000
	ts := synth.Treebank(n, 1)
	var trees, stall, wall float64
	var addMs []float64
	for i := 0; i < b.N; i++ {
		s, err := Create(b.TempDir(), ts[0].Labels, Options{NoSync: true})
		if err != nil {
			b.Fatal(err)
		}
		start := time.Now()
		for off := 0; off+batch <= n; off += batch {
			t0 := time.Now()
			if err := s.Add(int64(off), ts[off:off+batch]...); err != nil {
				b.Fatal(err)
			}
			addMs = append(addMs, float64(time.Since(t0))/float64(time.Millisecond))
			if off >= churnFrom {
				gone := make([]int64, batch)
				for k := range gone {
					gone[k] = int64(off - churnFrom + k)
				}
				if err := s.Remove(gone...); err != nil {
					b.Fatal(err)
				}
			}
		}
		wall += time.Since(start).Seconds()
		trees += n
		stall += s.Stats().StallTime.Seconds()
		b.StopTimer()
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	slices.Sort(addMs)
	b.ReportMetric(trees/wall, "trees/s")
	b.ReportMetric(addMs[len(addMs)/2], "add-p50-ms")
	b.ReportMetric(addMs[len(addMs)*99/100], "add-p99-ms")
	b.ReportMetric(stall/wall, "stall-share")
}

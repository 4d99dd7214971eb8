package core

import (
	"fmt"
	"testing"

	"treejoin/internal/engine"
	"treejoin/internal/lcrs"
	"treejoin/internal/sim"
	"treejoin/internal/synth"
)

// Micro-benchmarks of PartSJ's building blocks: the O(n log(n/δ)) MaxMinSize
// search, partition extraction, the subgraph containment test, and the index
// probe.

func benchBin(size int) *lcrs.Bin {
	ts := synth.Generate(synth.Params{
		N: 1, AvgSize: size, MaxFanout: 3, MaxDepth: 8, Labels: 20,
		DepthBias: 0, Cluster: 1, Seed: 11})
	return lcrs.Build(ts[0])
}

func BenchmarkMaxMinSize(b *testing.B) {
	for _, size := range []int{64, 256, 1024} {
		bin := benchBin(size)
		for _, tau := range []int{1, 5} {
			b.Run(fmt.Sprintf("n=%d/tau=%d", size, tau), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					MaxMinSize(bin, 2*tau+1)
				}
			})
		}
	}
}

func BenchmarkComputePartition(b *testing.B) {
	for _, size := range []int{64, 256, 1024} {
		bin := benchBin(size)
		b.Run(fmt.Sprintf("n=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Compute(bin, 7)
			}
		})
	}
}

func BenchmarkSubgraphMatch(b *testing.B) {
	bin := benchBin(256)
	p := Compute(bin, 7)
	ix := newInvIndex(3)
	ix.insert(0, p)
	var sc matchScratch
	b.Run("self-hit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, ps := range ix.posts {
				for _, e := range ps {
					ix.matches(e, bin, p.Roots[e.comp], &sc)
				}
			}
		}
	})
	other := benchBin(240)
	b.Run("cross", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for c := 0; c < p.Delta; c++ {
				MatchesAnywhere(p, int32(c), other)
			}
		}
	})
}

// BenchmarkIncrementalAdd times one Add into a stream of 512 trees, filled
// before the timer starts, plus the Remove that takes the added tree out
// again, so every op meets the same stream whatever b.N is. The tree added is
// a copy of a stream tree, so every probe finds candidates and reaches the
// verifier: candidates/op is how many.
func BenchmarkIncrementalAdd(b *testing.B) {
	ts := synth.Synthetic(512, 3)
	inc := NewIncrementalCached(Options{Tau: 2}, nil)
	for _, t := range ts {
		inc.Add(t)
	}
	before := inc.Stats().Candidates
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inc.Add(ts[i%len(ts)])
		inc.Remove(inc.Len() - 1)
	}
	b.StopTimer()
	b.ReportMetric(float64(inc.Stats().Candidates-before)/float64(b.N), "candidates/op")
}

// BenchmarkIndexProbe times the index probe alone — twig lookups, the search
// for the size window and the position test per posting, no match tests — over
// a Swissprot-profile collection indexed in full, every tree probing the
// sizes a join would. lookups/node is the twig-table lookups one probe node
// costs (its compatible keys, at most 4). The match cases run the match test
// on every posting visited as well: tests/node is what a join would pay
// without its per-partner dedup, hits/visit the share that matches.
func BenchmarkIndexProbe(b *testing.B) {
	ts := synth.Swissprot(2000, 11)
	bins := make([]*lcrs.Bin, len(ts))
	for i, t := range ts {
		bins[i] = lcrs.Build(t)
	}
	for _, tau := range []int{2, 3} {
		parts := make([]*Partition, len(ts))
		for i, bin := range bins {
			parts[i] = Compute(bin, 2*tau+1)
		}
		ix := bulkIndex(tau, parts, 1)
		b.Run(fmt.Sprintf("tau=%d", tau), func(b *testing.B) {
			var nodes, lookups, visited int64
			var keys [4]twig
			for i := 0; i < b.N; i++ {
				for _, bin := range bins {
					for _, n := range bin.Order {
						lookups += int64(probeKeys(bin, n, &keys))
						visited += ix.probe(bin, n, bin.Size()-tau, bin.Size(), noTieLimit, func(posting) {})
					}
					nodes += int64(bin.Size())
				}
			}
			b.ReportMetric(float64(lookups)/float64(nodes), "lookups/node")
			b.ReportMetric(float64(visited)/float64(nodes), "visited/node")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(nodes), "ns/probe-node")
		})
		b.Run(fmt.Sprintf("match/tau=%d", tau), func(b *testing.B) {
			var nodes, tests, hits int64
			var sc matchScratch
			for i := 0; i < b.N; i++ {
				for _, bin := range bins {
					for _, n := range bin.Order {
						tests += ix.probe(bin, n, bin.Size()-tau, bin.Size(), noTieLimit, func(e posting) {
							if ix.matches(e, bin, n, &sc) {
								hits++
							}
						})
					}
					nodes += int64(bin.Size())
				}
			}
			b.ReportMetric(float64(tests)/float64(nodes), "tests/node")
			b.ReportMetric(float64(hits)/float64(tests), "hits/visit")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(nodes), "ns/probe-node")
		})
	}
}

// BenchmarkSelfJoinWorkers times whole PartSJ self joins of a Swissprot-profile
// collection, per-tree artifacts warm, across worker counts: cold-index joins
// build the subgraph index and probe it (a corpus's first join at a
// threshold), warm-index joins probe it ready-made (every later one).
func BenchmarkSelfJoinWorkers(b *testing.B) {
	ts := synth.Swissprot(2000, 11)
	for _, tau := range []int{2, 3} {
		for _, workers := range []int{1, 2, 4, 8} {
			cache := engine.NewCache()
			opts := Options{Tau: tau, Workers: workers}
			job := partSJJob(opts, NewIndexCached(ts, opts, cache))
			job.Cache = cache
			job.SelfJoin(ts) // the verifier's views
			for _, mode := range []string{"cold-index", "warm-index"} {
				b.Run(fmt.Sprintf("tau=%d/workers=%d/%s", tau, workers, mode), func(b *testing.B) {
					job := job
					for i := 0; i < b.N; i++ {
						if mode == "cold-index" {
							job.Source = NewSource(NewIndexCached(ts, opts, cache))
						}
						job.SelfJoin(ts)
					}
				})
			}
		}
	}
}

// BenchmarkAblationPartitioning is §4.3's experiment the paper describes but
// omits: PartSJ over balanced MaxMinSize partitions against random bridging
// edges (the paper reports the balanced scheme 50–300 % faster overall). An
// op builds the index, NewIndexCached or randomIndex, and runs the self join
// on it, on one goroutine; cand/op and res/op are the join's counts.
func BenchmarkAblationPartitioning(b *testing.B) {
	ts := synth.Synthetic(100, 1)
	for _, tau := range []int{1, 3, 5} {
		opts := Options{Tau: tau, Workers: 1}
		for _, m := range []struct {
			name  string
			build func() *Index
		}{
			{"PRT", func() *Index { return NewIndexCached(ts, opts, nil) }},
			{"PRT-rand", func() *Index { return randomIndex(ts, tau, 42) }},
		} {
			b.Run(fmt.Sprintf("tau=%d/%s", tau, m.name), func(b *testing.B) {
				var st *sim.Stats
				for i := 0; i < b.N; i++ {
					_, st = partSJJob(opts, m.build()).SelfJoin(ts)
				}
				b.ReportMetric(float64(st.Candidates), "cand/op")
				b.ReportMetric(float64(st.Results), "res/op")
			})
		}
	}
}

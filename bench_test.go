// Benchmarks regenerating the paper's evaluation, one benchmark family per
// figure (Figure 14 doubles as Table 1's parameter grid). Collections are
// scaled-down versions of the paper's (see internal/bench); the quantities to
// compare across methods are ns/op (runtime figures) and the reported
// cand/op and res/op metrics (candidate figures). For bigger, configurable
// runs use cmd/benchfig.
package treejoin_test

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"

	"treejoin"
	"treejoin/internal/bench"
	"treejoin/internal/subtree"
	"treejoin/internal/synth"
	"treejoin/internal/ted"
	"treejoin/internal/tree"
)

// benchConfig keeps `go test -bench=.` affordable: ~0.2% of the paper's
// cardinalities (Swissprot 200, Treebank 100, Sentiment/Synthetic 20→clamped).
func benchConfig() bench.Config { return bench.Config{Scale: 0.002, Seed: 1} }

var benchMethods = []bench.Method{bench.STR, bench.SET, bench.PRT}

// runJoin is the common measurement loop: one full self join per iteration,
// on one worker as the paper ran them, with candidate and result counts
// attached as custom metrics.
func runJoin(b *testing.B, m bench.Method, name string, ts []*tree.Tree, tau int) {
	b.Helper()
	var last bench.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last = bench.Run(m, name, ts, tau, 1)
	}
	b.ReportMetric(float64(last.Candidates), "cand/op")
	b.ReportMetric(float64(last.Results), "res/op")
}

// BenchmarkFig10And11 — runtime (Fig 10) and candidates (Fig 11) versus the
// TED threshold τ, on all four dataset profiles, for STR/SET/PRT.
func BenchmarkFig10And11(b *testing.B) {
	for _, ds := range bench.Datasets(benchConfig()) {
		for _, tau := range []int{1, 3, 5} {
			for _, m := range benchMethods {
				b.Run(fmt.Sprintf("%s/tau=%d/%s", ds.Name, tau, m), func(b *testing.B) {
					runJoin(b, m, ds.Name, ds.Trees, tau)
				})
			}
		}
	}
}

// BenchmarkFig12And13 — runtime (Fig 12) and candidates (Fig 13) versus
// collection cardinality at τ = 3.
func BenchmarkFig12And13(b *testing.B) {
	const tau = 3
	for _, ds := range bench.Datasets(benchConfig()) {
		for _, pct := range []int{40, 100} {
			n := len(ds.Trees) * pct / 100
			sub := ds.Trees[:n]
			for _, m := range benchMethods {
				b.Run(fmt.Sprintf("%s/n=%d/%s", ds.Name, n, m), func(b *testing.B) {
					runJoin(b, m, ds.Name, sub, tau)
				})
			}
		}
	}
}

// BenchmarkFig14 — the sensitivity analysis / Table 1 grid: one synthetic
// parameter varies (maximum fanout f, maximum depth d, labels l, tree size
// t) while the others hold their defaults (3, 5, 20, 80); τ = 3.
func BenchmarkFig14(b *testing.B) {
	const tau = 3
	const n = 40 // the 10K-tree synthetic collection at bench scale
	sweeps := []struct {
		param  string
		values []int
		gen    func(v int) []*tree.Tree
	}{
		{"f", []int{2, 4, 6}, func(v int) []*tree.Tree {
			return synth.Generate(synth.SyntheticParams(n, v, 5, 20, 80, 1))
		}},
		{"d", []int{4, 6, 8}, func(v int) []*tree.Tree {
			return synth.Generate(synth.SyntheticParams(n, 3, v, 20, 80, 1))
		}},
		{"l", []int{3, 20, 50}, func(v int) []*tree.Tree {
			return synth.Generate(synth.SyntheticParams(n, 3, 5, v, 80, 1))
		}},
		{"t", []int{40, 120, 200}, func(v int) []*tree.Tree {
			return synth.Generate(synth.SyntheticParams(n, 3, 5, 20, v, 1))
		}},
	}
	for _, sw := range sweeps {
		for _, v := range sw.values {
			ts := sw.gen(v)
			for _, m := range benchMethods {
				b.Run(fmt.Sprintf("%s=%d/%s", sw.param, v, m), func(b *testing.B) {
					runJoin(b, m, sw.param, ts, tau)
				})
			}
		}
	}
}

// BenchmarkBaselinePanorama — reproduction extension: the full lower-bound
// filter landscape of the survey [18] (STR, SET, HIST of Kailing et al., EUL
// of Akutsu et al., PRT) on the synthetic profile.
func BenchmarkBaselinePanorama(b *testing.B) {
	ts := synth.Synthetic(100, 1)
	for _, tau := range []int{1, 3} {
		for _, m := range []bench.Method{bench.STR, bench.SET, bench.HIST, bench.EUL, bench.PRT} {
			b.Run(fmt.Sprintf("tau=%d/%s", tau, m), func(b *testing.B) {
				runJoin(b, m, "Synthetic", ts, tau)
			})
		}
	}
}

// BenchmarkParallelVerification — the paper's future-work direction
// (multi-core): PartSJ with a TED verification worker pool.
func BenchmarkParallelVerification(b *testing.B) {
	ts := synth.Synthetic(400, 1)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bench.Run(bench.PRT, "Synthetic", ts, 3, workers)
			}
		})
	}
}

// BenchmarkShardedJoin — the paper's parallel direction: the same join over a
// corpus cut into `shards` parts, on as many workers (indexes warm).
func BenchmarkShardedJoin(b *testing.B) {
	ts := synth.Synthetic(400, 1)
	for _, shards := range []int{1, 2, 4, 8} {
		cp, err := treejoin.NewSharded(shards, ts)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cp.SelfJoin(context.Background(), 3, treejoin.WithWorkers(shards))
			}
		})
	}
}

// BenchmarkTopK — threshold-free closest pairs via expanding-threshold
// PartSJ passes over a warm corpus.
func BenchmarkTopK(b *testing.B) {
	cp, err := treejoin.NewCorpus(synth.Synthetic(200, 1))
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cp.TopK(context.Background(), k)
			}
		})
	}
}

// BenchmarkKNN — nearest-neighbour queries against a warm corpus (indexes
// cached per visited threshold).
func BenchmarkKNN(b *testing.B) {
	ts := synth.Synthetic(200, 1)
	cp, err := treejoin.NewCorpus(ts)
	if err != nil {
		b.Fatal(err)
	}
	cp.KNN(context.Background(), ts[0], 5) // warm the index cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp.KNN(context.Background(), ts[i%len(ts)], 5)
	}
}

// BenchmarkDatasetCodec — binary dataset encode and decode against parsing
// the same trees as bracket text. Decode sizes each tree from the stream's
// node count and skips re-interning labels; it runs on one core, the parse on
// every core.
func BenchmarkDatasetCodec(b *testing.B) {
	ts := synth.Synthetic(500, 1)
	lt := ts[0].Labels
	var buf bytes.Buffer
	if err := treejoin.WriteDataset(&buf, lt, ts); err != nil {
		b.Fatal(err)
	}
	encoded := buf.Bytes()
	var text bytes.Buffer
	for _, t := range ts {
		text.WriteString(tree.FormatBracket(t))
		text.WriteByte('\n')
	}
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(encoded)))
		for i := 0; i < b.N; i++ {
			var out bytes.Buffer
			if err := treejoin.WriteDataset(&out, lt, ts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(encoded)))
		for i := 0; i < b.N; i++ {
			if _, _, err := treejoin.ReadDataset(bytes.NewReader(encoded)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parse-bracket", func(b *testing.B) {
		b.SetBytes(int64(text.Len()))
		for i := 0; i < b.N; i++ {
			if _, err := treejoin.ReadBracketLines(bytes.NewReader(text.Bytes()), treejoin.NewLabelTable()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTransform — edit-script playback cost (mapping extraction plus
// one induced tree per edit step).
func BenchmarkTransform(b *testing.B) {
	ts := synth.Synthetic(40, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := ts[i%len(ts)]
		c := ts[(i+1)%len(ts)]
		if _, err := ted.Transform(a, c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineParallelCandidates — the engine's parallel candidate
// generation: the sorted probe loop sharded across the WithWorkers pool, on
// a filter-heavy method (EUL's banded string comparisons) over a 1000-tree
// corpus at τ = 1, where candidate generation dominates end to end. The
// sequential/parallel ns/op ratio is the engine's candidate-generation
// speedup (verification is parallelised identically in both runs).
func BenchmarkEngineParallelCandidates(b *testing.B) {
	ts := synth.Synthetic(1000, 1)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var st treejoin.Stats
			for i := 0; i < b.N; i++ {
				_, st = selfJoin(b, ts, 1,
					treejoin.WithMethod(treejoin.MethodEulerString),
					treejoin.WithWorkers(workers))
			}
			b.ReportMetric(float64(st.Candidates), "cand/op")
		})
	}
}

// engineBenchCorpus is the standard synthetic corpus the engine candidate
// benchmarks (FilterChain, IndexSource) share, so their variants compare
// like-for-like: same trees, same thresholds, sorted loop versus token
// index.
func engineBenchCorpus() []*tree.Tree { return synth.Synthetic(2000, 1) }

var engineBenchTaus = []int{1, 2, 4}

// BenchmarkEngineFilterChain — the sorted-loop filter-chain baseline: each
// method alone versus the same method with the cheap HIST statistics screen
// chained in front of it via the engine pipeline (cf. the benchfig
// "pipeline" figure). All variants run the O(n²) sorted loop; the matching
// BenchmarkEngineIndexSource variants run the token inverted-index source
// over the same corpus and thresholds.
func BenchmarkEngineFilterChain(b *testing.B) {
	ts := engineBenchCorpus()
	for _, tau := range engineBenchTaus {
		for _, m := range []bench.Method{
			bench.PRT, bench.PRTHist, bench.STR, bench.STRHist, bench.PQG, bench.PQGHist,
		} {
			b.Run(fmt.Sprintf("%s/tau=%d", m, tau), func(b *testing.B) {
				runJoin(b, m, "Synthetic", ts, tau)
			})
		}
	}
}

// BenchmarkEngineIndexSource — the token inverted-index candidate source on
// the signature methods, over the same corpus and thresholds as
// BenchmarkEngineFilterChain. cold runs one-shot joins (every iteration
// tokenises from scratch, like the sorted-loop baseline recomputes its
// signatures); warm runs against a pre-warmed Corpus whose cache already
// holds every token bag, filter signature and index — the steady state of a
// served workload, where the probe is most of the time. Warm reuse is
// asserted by cache hit counters in TestTokenIndexWarmCorpus. postings/op
// and skipped/op are the probe's Stats.PostingsScanned and
// Stats.SkippedByCount.
func BenchmarkEngineIndexSource(b *testing.B) {
	type indexCase struct {
		name string
		ts   []*tree.Tree
		tau  int
		m    treejoin.Method
	}
	var cases []indexCase
	ts := engineBenchCorpus()
	for _, tau := range engineBenchTaus {
		for _, mm := range []struct {
			name string
			m    treejoin.Method
		}{
			{"STR", treejoin.MethodSTR},
			{"PQG", treejoin.MethodPQGram},
			{"HIST", treejoin.MethodHistogram},
		} {
			cases = append(cases, indexCase{fmt.Sprintf("%s/tau=%d", mm.name, tau), ts, tau, mm.m})
		}
	}
	// The join-dense workload's shape at its warm τ: 1 400 trees of 200
	// nodes in clusters of 36 near-duplicates, where the probe, not the
	// verifier, is most of a warm join.
	dense := synth.SyntheticParams(1400, 4, 8, 20, 200, 1)
	dense.Cluster, dense.Decay = 36, 0.03
	cases = append(cases, indexCase{"PQG/dense/tau=6", synth.Generate(dense), 6, treejoin.MethodPQGram})
	for _, ic := range cases {
		b.Run(ic.name+"/cold", func(b *testing.B) {
			var st treejoin.Stats
			for i := 0; i < b.N; i++ {
				_, st = selfJoin(b, ic.ts, ic.tau, treejoin.WithMethod(ic.m))
			}
			reportProbe(b, st)
		})
		b.Run(ic.name+"/warm", func(b *testing.B) {
			corpus, err := treejoin.NewCorpus(ic.ts)
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			opts := []treejoin.Option{treejoin.WithMethod(ic.m)}
			if _, _, err := corpus.SelfJoin(ctx, ic.tau, opts...); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var st treejoin.Stats
			for i := 0; i < b.N; i++ {
				var err error
				_, st, err = corpus.SelfJoin(ctx, ic.tau, opts...)
				if err != nil {
					b.Fatal(err)
				}
			}
			reportProbe(b, st)
		})
	}
}

// reportProbe reports a token-index join's offers (the pairs its first stage
// screened), candidates, results, the postings its probe read and the
// partners its count threshold dropped, and the wall time of its index build
// (0 when the corpus already held the index).
func reportProbe(b *testing.B, st treejoin.Stats) {
	if len(st.Stages) > 0 {
		b.ReportMetric(float64(st.Stages[0].In), "offers/op")
	}
	b.ReportMetric(float64(st.Candidates), "cand/op")
	b.ReportMetric(float64(st.Results), "res/op")
	b.ReportMetric(float64(st.PostingsScanned), "postings/op")
	b.ReportMetric(float64(st.SkippedByCount), "skipped/op")
	b.ReportMetric(float64(st.IndexBuildTime)/1e6, "build-ms/op")
}

// BenchmarkEngineCrossJoin — cross joins through the one engine loop, per
// method: cold, both corpora built on every op, and warm/<method>, both built
// once, so that an op is the partner's trees probing the receiver's cached
// index (build-ms/op 0) — with the probe's counters (reportProbe).
func BenchmarkEngineCrossJoin(b *testing.B) {
	ts := synth.Synthetic(400, 1)
	a, c := ts[:200], ts[200:]
	methods := []treejoin.Method{treejoin.MethodPartSJ, treejoin.MethodHistogram, treejoin.MethodPQGram}
	for _, m := range methods {
		b.Run(m.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				crossJoin(b, a, c, 2, treejoin.WithMethod(m))
			}
		})
	}
	b.Run("warm", func(b *testing.B) {
		for _, m := range methods {
			b.Run(m.String(), func(b *testing.B) {
				ca, cc := mustCorpus(b, a), mustCorpus(b, c)
				opts := []treejoin.Option{treejoin.WithMethod(m)}
				if _, _, err := ca.Join(context.Background(), cc, 2, opts...); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				var st treejoin.Stats
				for i := 0; i < b.N; i++ {
					var err error
					if _, st, err = ca.Join(context.Background(), cc, 2, opts...); err != nil {
						b.Fatal(err)
					}
				}
				reportProbe(b, st)
			})
		}
	})
}

// BenchmarkSubtreeSearch — similarity search inside one large tree, with
// and without the traversal-string screens engaged (τ sweep).
func BenchmarkSubtreeSearch(b *testing.B) {
	big := synth.Generate(synth.Params{
		N: 1, AvgSize: 2000, SizeJitter: 0, MaxFanout: 4, MaxDepth: 12,
		Labels: 10, Cluster: 1, Seed: 7})[0]
	query := tree.SubtreeAt(big, int32(big.Size()/2))
	for _, tau := range []int{0, 2, 4} {
		b.Run(fmt.Sprintf("tau=%d", tau), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				subtree.Search(big, query, tau)
			}
		})
	}
}

// BenchmarkReadBracketLines — ingest of bracket text, the serial head of every
// cold join: the Swissprot profile (many short labels, ~100 nodes a tree) and
// 200-node synthetic trees, at one and two cores. Compare trees/s and
// allocs/op across commits; the one-core rows isolate the parser itself.
func BenchmarkReadBracketLines(b *testing.B) {
	for _, in := range []struct {
		name string
		ts   []*tree.Tree
	}{
		{"swissprot", synth.Swissprot(4000, 1)},
		{"synthetic200", synth.Generate(synth.SyntheticParams(1400, 4, 8, 20, 200, 1))},
	} {
		var text bytes.Buffer
		if err := treejoin.WriteBracketLines(&text, in.ts); err != nil {
			b.Fatal(err)
		}
		for _, procs := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/procs=%d", in.name, procs), func(b *testing.B) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				b.SetBytes(int64(text.Len()))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					ts, err := treejoin.ReadBracketLines(bytes.NewReader(text.Bytes()), nil)
					if err != nil || len(ts) != len(in.ts) {
						b.Fatalf("read %d trees, err %v", len(ts), err)
					}
				}
				b.ReportMetric(float64(len(in.ts))*float64(b.N)/b.Elapsed().Seconds(), "trees/s")
			})
		}
	}
}

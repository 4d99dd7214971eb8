package engine_test

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"treejoin/internal/baseline"
	"treejoin/internal/engine"
	"treejoin/internal/sim"
	"treejoin/internal/synth"
	"treejoin/internal/ted"
	"treejoin/internal/tree"
)

// tokenizers under test: the two real implementations the methods wire in.
func testTokenizers() []engine.Tokenizer {
	return []engine.Tokenizer{baseline.LabelTokenizer(), baseline.EulerGramTokenizer()}
}

// mixedCorpus is a synthetic collection large enough to engage the index,
// with a handful of tiny trees appended so the light-tree path runs too, and
// same-size variants of both (renamed copies, repeated tiny trees) so the
// order has equal-size runs on either side of every chunk boundary.
func mixedCorpus(n int, seed int64) []*tree.Tree {
	ts := synth.Synthetic(n, seed)
	lt := ts[0].Labels
	for i := 0; i < n; i += 5 {
		ts = append(ts, tree.Rename(ts[i], 0, "renamed"))
	}
	for _, s := range []string{"{a}", "{b}", "{a}", "{a{b}}", "{a{b}{c}}", "{a{c}{b}}", "{x{y{z}}}", "{a{b}{c}}"} {
		ts = append(ts, tree.MustParseBracket(s, lt))
	}
	return ts
}

// candidateLog is a verifier that records, by tree identity, every pair
// handed to verification.
type candidateLog struct {
	mu    sync.Mutex
	pairs map[[2]*tree.Tree]bool
}

func (l *candidateLog) verify(t1, t2 *tree.Tree, tau int) (int, bool) {
	l.mu.Lock()
	if l.pairs == nil {
		l.pairs = make(map[[2]*tree.Tree]bool)
	}
	l.pairs[[2]*tree.Tree{t1, t2}] = true
	l.pairs[[2]*tree.Tree{t2, t1}] = true
	l.mu.Unlock()
	return ted.DistanceBounded(t1, t2, tau)
}

// TestTokenIndexOracle: the frozen token index produces exactly the sorted
// loop's result set, and its candidates are among the loop's post-filter
// survivors — self and cross joins, every tokenizer, thresholds from exact
// matching through bag-saturating. However the probe is chunked (one chunk;
// three and eight, pulled by one worker and by two), the candidates and every
// counter are those of the single chunk: a probe sees the postings below its
// own rank and no others.
func TestTokenIndexOracle(t *testing.T) {
	ts := mixedCorpus(60, 11)
	filter := baseline.HISTFilter()
	run := func(job engine.Job, cross bool) ([]sim.Pair, *sim.Stats, *candidateLog) {
		log := new(candidateLog)
		job.Verifier = log.verify
		if cross {
			got, st := job.Join(ts[:50], ts[50:])
			return got, st, log
		}
		got, st := job.SelfJoin(ts)
		return got, st, log
	}
	for _, tz := range testTokenizers() {
		for _, tau := range []int{0, 1, 2, 4, 8} {
			for _, cross := range []bool{false, true} {
				want, _, loop := run(engine.Job{Tau: tau, Filters: []engine.PairFilter{filter}}, cross)
				indexed := ts
				if cross {
					indexed = ts[:50]
				}
				var one *sim.Stats
				for _, workers := range []int{1, 2, 3} {
					label := fmt.Sprintf("%s τ=%d cross=%v workers=%d", tz.Name(), tau, cross, workers)
					got, st, log := run(engine.Job{
						Tau: tau, Filters: []engine.PairFilter{filter}, Source: engine.TokenIndex(tz, engine.BuildIndex(tz, indexed, tau, workers)),
						Workers: workers,
					}, cross)
					equalPairs(t, label, got, want)
					for p := range log.pairs {
						if !loop.pairs[p] {
							t.Fatalf("%s: the index fed a pair the loop's filter chain prunes", label)
						}
					}
					if one == nil {
						one = st
						continue
					}
					if st.Candidates != one.Candidates || st.PostingsScanned != one.PostingsScanned ||
						st.SkippedByCount != one.SkippedByCount || st.Stages[0].In != one.Stages[0].In ||
						st.Stages[0].Pruned != one.Stages[0].Pruned {
						t.Fatalf("%s: candidates/scanned/skipped/in/pruned %d/%d/%d/%d/%d, one chunk %d/%d/%d/%d/%d", label,
							st.Candidates, st.PostingsScanned, st.SkippedByCount, st.Stages[0].In, st.Stages[0].Pruned,
							one.Candidates, one.PostingsScanned, one.SkippedByCount, one.Stages[0].In, one.Stages[0].Pruned)
					}
				}
			}
		}
	}
}

// TestBagStageInProbe: the token index decides its own tokenizer's bag stage
// inside the probe with the verdicts of the stage's predicate. The same job
// with the stage wrapped opaquely in NewFilter — which the probe cannot
// recognise, so every pair runs the prepared merge — reports the same stage
// counts, candidates and results, and sequentially emits them in the same
// order: both tokenizers, thresholds from exact matching through
// bag-saturating, self and cross joins, the stage first and behind another
// stage, on one worker and on two.
func TestBagStageInProbe(t *testing.T) {
	ts := mixedCorpus(60, 11)
	for _, tz := range testTokenizers() {
		bag := engine.BagFilter("BAG", tz)
		opaque := engine.NewFilter(bag.Name(), bag.Prepare)
		indexed, pruned := 0, int64(0)
		for _, tau := range []int{0, 1, 2, 4, 8} {
			for _, cross := range []bool{false, true} {
				x := engine.BuildIndex(tz, ts, tau, 1)
				if cross {
					x = engine.BuildIndex(tz, ts[:50], tau, 1)
				}
				for _, behind := range []bool{false, true} {
					for _, workers := range []int{1, 2} {
						run := func(stage engine.PairFilter) ([]sim.Pair, *sim.Stats) {
							chain := []engine.PairFilter{stage}
							if behind {
								chain = []engine.PairFilter{baseline.HISTFilter(), stage}
							}
							job := engine.Job{Tau: tau, Filters: chain, Source: engine.TokenIndex(tz, x), Workers: workers}
							var emitted []sim.Pair
							sink := func(p sim.Pair) bool {
								emitted = append(emitted, p)
								return true
							}
							var st *sim.Stats
							var err error
							if cross {
								st, err = job.StreamJoin(context.Background(), ts[:50], ts[50:], sink)
							} else {
								st, err = job.StreamSelf(context.Background(), ts, sink)
							}
							if err != nil {
								t.Fatal(err)
							}
							if workers > 1 {
								sim.SortPairs(emitted)
							}
							return emitted, st
						}
						label := fmt.Sprintf("%s τ=%d cross=%v behind=%v workers=%d", tz.Name(), tau, cross, behind, workers)
						got, gst := run(bag)
						want, wst := run(opaque)
						equalPairs(t, label, got, want)
						if gst.Candidates != wst.Candidates || gst.Source != wst.Source {
							t.Fatalf("%s: candidates/source %d/%s, opaque stage %d/%s", label, gst.Candidates, gst.Source, wst.Candidates, wst.Source)
						}
						for k := range wst.Stages {
							if g, w := gst.Stages[k], wst.Stages[k]; g.Name != w.Name || g.In != w.In || g.Pruned != w.Pruned {
								t.Fatalf("%s: stage %d %s in/pruned %d/%d, opaque stage %s %d/%d", label, k, g.Name, g.In, g.Pruned, w.Name, w.In, w.Pruned)
							}
						}
						if strings.HasPrefix(gst.Source, "token-index(") {
							indexed++
							pruned += gst.Stages[len(gst.Stages)-1].Pruned
						}
					}
				}
			}
		}
		if indexed == 0 || pruned == 0 {
			t.Fatalf("%s: %d runs probed the index, their bag stage pruned %d pairs; the sweep tests nothing", tz.Name(), indexed, pruned)
		}
	}
}

// TestWorkersNormalized: worker counts below 1 become GOMAXPROCS everywhere
// tasks are dealt — the collection view a source sees — and explicit counts
// pass through.
func TestWorkersNormalized(t *testing.T) {
	ts := synth.Synthetic(10, 5)
	for _, tc := range []struct{ in, want int }{
		{0, runtime.GOMAXPROCS(0)},
		{-3, runtime.GOMAXPROCS(0)},
		{1, 1},
		{4, 4},
	} {
		var seen int
		src := captureSource{onTasks: func(c *engine.Collection) { seen = c.Workers }}
		(engine.Job{Tau: 1, Workers: tc.in, Source: src}).SelfJoin(ts)
		if seen != tc.want {
			t.Fatalf("Workers=%d: collection saw %d workers, want %d", tc.in, seen, tc.want)
		}
	}
	if got := sim.NormalizeWorkers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("NormalizeWorkers(0) = %d", got)
	}
	if got := sim.NormalizeWorkers(7); got != 7 {
		t.Fatalf("NormalizeWorkers(7) = %d", got)
	}
}

// captureSource records the collection it was asked to decompose and offers
// nothing.
type captureSource struct{ onTasks func(c *engine.Collection) }

func (s captureSource) Name() string { return "capture" }
func (s captureSource) Tasks(c *engine.Collection) []engine.Task {
	s.onTasks(c)
	return nil
}

// TestTokenIndexRace: concurrent joins over one shared cache — self joins on
// private indexes, and cross joins that probe one shared index per
// tokenizer, two at once, racing for its ranking's key lookup — each from
// two workers. Run with -race.
func TestTokenIndexRace(t *testing.T) {
	ts := mixedCorpus(60, 17)
	a, b := ts[:50], ts[50:]
	cache := engine.NewCache()
	hist := []engine.PairFilter{baseline.HISTFilter()}
	self, _ := (engine.Job{Tau: 2, Filters: hist}).SelfJoin(ts)
	cross, _ := (engine.Job{Tau: 2, Filters: hist}).Join(a, b)
	tzs := testTokenizers()
	shared := make([]func() *engine.PrefixIndex, len(tzs))
	for k, tz := range tzs {
		shared[k] = sync.OnceValue(func() *engine.PrefixIndex {
			return engine.NewPrefixIndex(engine.NewTokenRanking(tz, a, 2, cache), 2)
		})
	}
	var wg sync.WaitGroup
	for g := range 6 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k := g % 2
			job := engine.Job{Tau: 2, Filters: hist, Cache: cache, Workers: 2}
			if g%3 == 2 {
				job.Source = engine.TokenIndex(tzs[k], engine.NewPrefixIndex(engine.NewTokenRanking(tzs[k], ts, 2, cache), 2))
				if got, _ := job.SelfJoin(ts); len(got) != len(self) {
					t.Errorf("goroutine %d: %d pairs, want %d", g, len(got), len(self))
				}
				return
			}
			job.Source = engine.TokenIndex(tzs[k], shared[k]())
			if got, st := job.Join(a, b); !slices.Equal(got, cross) || !strings.HasPrefix(st.Source, "token-index(") {
				t.Errorf("goroutine %d: %d cross pairs from %s, want %d from the token index", g, len(got), st.Source, len(cross))
			}
		}()
	}
	wg.Wait()
}

// BenchmarkTokenRanking — NewTokenRanking with every bag already cached, on
// GOMAXPROCS workers: what a cold join of an epoch pays to number, rank and
// re-bag its tokens once tokenisation is done. Shapes: the join-dense
// workload's (1 400 trees of 200 nodes in clusters of 36) and the Swissprot
// profile at the paper's 11 500 trees, each under Euler 3-grams and label
// tokens. ids/op is the number of distinct tokens ranked.
func BenchmarkTokenRanking(b *testing.B) {
	dense := synth.SyntheticParams(1400, 4, 8, 20, 200, 1)
	dense.Cluster, dense.Decay = 36, 0.03
	shapes := []struct {
		name string
		ts   []*tree.Tree
	}{
		{"dense", synth.Generate(dense)},
		{"swissprot", synth.Swissprot(11500, 1)},
	}
	for _, sh := range shapes {
		for _, tz := range []engine.Tokenizer{baseline.EulerGramTokenizer(), baseline.LabelTokenizer()} {
			b.Run(fmt.Sprintf("%s/%s", sh.name, strings.SplitN(tz.Name(), "/", 2)[0]), func(b *testing.B) {
				cache := engine.NewCache()
				rk := engine.NewTokenRanking(tz, sh.ts, 0, cache)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rk = engine.NewTokenRanking(tz, sh.ts, 0, cache)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N), "ms/op")
				b.ReportMetric(float64(rk.Distinct()), "ids/op")
			})
		}
	}
}

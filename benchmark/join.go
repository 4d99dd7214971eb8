package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"treejoin"
	"treejoin/internal/synth"
	"treejoin/internal/ted"
)

// workers is the parallelism of every join the rig runs: the machine the
// bounds were fixed on has two cores, and every process runs GOMAXPROCS=2.
const workers = 2

const (
	searchTau     = 2                      // Corpus.Search threshold on the batch and store workloads
	searchSamples = 2000                   // searches per run: p99 keeps 20 samples beyond it
	oracleQueries = 4                      // searches checked against brute force over the whole corpus
	minReps       = 3                      // cold reps, each with at least one warm join, however short the run
	warmShare     = 0.8                    // time the warm joins get, as a share of the cold reps' time
	oracleTrees   = 150                    // corpus prefix checked against brute force in set-up,
	oracleBudget  = 400 * time.Millisecond // as far as this much time allows
	paperTrees    = 1000                   // prefix the paper-shape comparison runs on
	paperTau      = 3
)

// joinWorkload is one of the two batch workloads.
type joinWorkload struct {
	name      string
	generate  func(seed int64) []*treejoin.Tree
	holdEvery int // every holdEvery-th generated tree is a query, not a corpus member
	method    treejoin.Method
	coldTau   int
	warmTau   int
	paper     bool // run the PRT/SET/STR comparison in set-up
}

var joinWorkloads = map[string]joinWorkload{
	joinSparse: {
		name: joinSparse,
		generate: func(seed int64) []*treejoin.Tree {
			return draw(synth.Swissprot(2*sparseTrees, universeSeed), 4, sparseTrees, seed)
		},
		holdEvery: 24,
		method:    treejoin.MethodPartSJ,
		coldTau:   2, warmTau: 3,
		paper: true,
	},
	joinDense: {
		name: joinDense,
		generate: func(seed int64) []*treejoin.Tree {
			return draw(synth.Generate(denseParams(2*denseTrees, universeSeed)), denseCluster, denseTrees, seed)
		},
		holdEvery: denseCluster,
		method:    treejoin.MethodPQGram,
		coldTau:   8, warmTau: 6,
	},
}

// joinConfig is what the parent hands the measuring child.
type joinConfig struct {
	Input   string // bracket text, one corpus tree per line
	Queries string // bracket text, held-out cluster mates
	Method  treejoin.Method
	ColdTau int
	WarmTau int
	Seed    int64
	Seconds float64
	Trace   bool
}

// joinOut is what the child measured.
type joinOut struct {
	Trees     int
	Cold      []float64 // s per cold rep: file on disk → all pairs emitted
	Load      []float64 // s of read+parse+NewCorpus inside each rep
	Warm      []float64 // s per SelfJoin(WarmTau) on the last corpus
	SearchP50 float64   // ms
	SearchP99 float64
	SearchN   int
	Digest    string // of the cold pair list; reps that disagree are failures
	Checks    checks
	Layer     readings
	Spans     []span
}

func (c joinConfig) opts(w int) []treejoin.Option {
	return []treejoin.Option{treejoin.WithMethod(c.Method), treejoin.WithWorkers(w)}
}

// coldRep is the path a `treejoin -input` user waits for: text file on disk →
// ReadBracketLines → NewCorpus → SelfJoin → pairs written as TSV. The TSV
// goes to a hash, which discards it and yields the digest in one pass.
type coldRep struct {
	cp     *treejoin.Corpus
	pairs  []treejoin.Pair
	stats  treejoin.Stats
	load   time.Duration // read+parse+NewCorpus
	join   time.Duration // the SelfJoin call
	total  time.Duration
	digest string
}

func runCold(ctx context.Context, c joinConfig, rec *recorder, rep int) (coldRep, error) {
	var r coldRep
	start := time.Now()
	root := rec.begin("cold", -1, rep)

	id := rec.begin("read+parse", root, rep)
	f, err := os.Open(c.Input)
	if err != nil {
		return r, err
	}
	ts, err := treejoin.ReadBracketLines(f, nil)
	f.Close()
	if err != nil {
		return r, fmt.Errorf("reading %s: %w", c.Input, err)
	}
	rec.end(id, map[string]float64{"trees": float64(len(ts))})

	id = rec.begin("NewCorpus", root, rep)
	r.cp, err = treejoin.NewCorpus(ts)
	if err != nil {
		return r, err
	}
	rec.end(id, nil)
	r.load = time.Since(start)

	id = rec.begin("SelfJoin", root, rep)
	t0 := time.Now()
	r.pairs, r.stats, err = r.cp.SelfJoin(ctx, c.ColdTau, c.opts(workers)...)
	if err != nil {
		return r, err
	}
	r.join = time.Since(t0)
	rec.end(id, statsAttrs(r.stats))

	id = rec.begin("emit", root, rep)
	h := sha256.New()
	writePairsTSV(h, r.pairs) // a hash does not fail
	r.digest = hex.EncodeToString(h.Sum(nil))
	rec.end(id, map[string]float64{"pairs": float64(len(r.pairs))})

	rec.end(root, nil)
	r.total = time.Since(start)
	return r, nil
}

// statsAttrs is the part of a join's Stats a span carries as attributes.
func statsAttrs(s treejoin.Stats) map[string]float64 {
	return map[string]float64{
		"candidates":  float64(s.Candidates),
		"results":     float64(s.Results),
		"cand_wall_s": s.CandWall.Seconds(),
		"verify_s":    s.VerifyTime.Seconds(),
		"partition_s": s.PartitionTime.Seconds(),
		"match_tests": float64(s.MatchTests),
		"match_hits":  float64(s.MatchHits),
		"dp_avoided":  float64(s.DPAvoided),
		"band_aborts": float64(s.BandAborts),
	}
}

// runJoin is the measuring child of a batch workload: for 80 % of the run
// cold reps, each followed by warm joins on the first rep's corpus until the
// warm joins have had warmShare of the cold reps' time, then the point
// searches and one TopK. Cold and warm take turns because the shared host's
// speed wanders by a tenth over half a minute: each median then averages it
// over the whole phase, not over its own half. A traced run records spans
// around the same calls and then takes the per-layer probes.
func runJoin(c joinConfig) (*joinOut, error) {
	ctx := context.Background()
	out := &joinOut{Layer: readings{}}
	var rec *recorder
	if c.Trace {
		rec = newRecorder()
	}
	start := time.Now()
	budget := func(share float64) bool {
		return time.Since(start).Seconds() < share*c.Seconds
	}

	var last coldRep
	var joinCalls []float64
	var firstPlan string
	flips := 0
	var warmCp *treejoin.Corpus // the first rep's corpus, its warm-τ artifacts built
	var warmPairs []treejoin.Pair
	var cacheBefore treejoin.CacheStats
	var coldS, warmS float64
	for rep := 0; rep < minReps || budget(0.80); rep++ {
		cr, err := runCold(ctx, c, rec, rep)
		if err != nil {
			return nil, err
		}
		out.Cold = append(out.Cold, cr.total.Seconds())
		out.Load = append(out.Load, cr.load.Seconds())
		joinCalls = append(joinCalls, cr.join.Seconds())
		coldS += cr.total.Seconds()
		if plan := fmt.Sprint(cr.stats.Plan); rep == 0 {
			out.Digest, firstPlan = cr.digest, plan
		} else if plan != firstPlan {
			flips++
		}
		out.Checks.expect(cr.digest == out.Digest, "cold rep %d: pair digest %s differs from rep 0's %s", rep, cr.digest, out.Digest)
		last = cr

		if warmCp == nil {
			warmCp = cr.cp
			if warmPairs, _, err = warmCp.SelfJoin(ctx, c.WarmTau, c.opts(workers)...); err != nil {
				return nil, err
			}
			cacheBefore = warmCp.CacheStats()
		}
		for n := 0; n == 0 || warmS < warmShare*coldS; n++ {
			id := rec.begin("SelfJoin warm", -1, len(out.Warm))
			t0 := time.Now()
			pairs, st, err := warmCp.SelfJoin(ctx, c.WarmTau, c.opts(workers)...)
			if err != nil {
				return nil, err
			}
			out.Warm = append(out.Warm, time.Since(t0).Seconds())
			warmS += time.Since(t0).Seconds()
			rec.end(id, statsAttrs(st))
			out.Checks.expect(slices.Equal(pairs, warmPairs), "warm rep %d: pair list differs from the first's", len(out.Warm)-1)
		}
	}
	cacheAfter := warmCp.CacheStats()
	// Every rep built an equal corpus from the same file; what follows uses
	// the one that has its artifacts at both thresholds.
	cp := warmCp
	last.cp = cp
	out.Trees = cp.Len()

	queries, err := readQueries(c.Queries, cp.Labels())
	if err != nil {
		return nil, err
	}
	searchMs, err := searchPhase(ctx, cp, queries, &out.Checks)
	if err != nil {
		return nil, err
	}
	out.SearchN = len(searchMs)
	out.SearchP50 = median(searchMs)
	out.SearchP99 = tail(searchMs, 0.99)

	t0 := time.Now()
	top, err := cp.TopK(ctx, 10, treejoin.WithWorkers(workers))
	if err != nil {
		return nil, err
	}
	topkMs := msSince(t0)
	out.Checks.expect(len(top) == 10, "TopK(10) returned %d pairs", len(top))

	if !c.Trace {
		return out, nil
	}

	L := out.Layer
	st := last.stats
	L.set("ted.verify_reported_s", st.VerifyTime.Seconds(), 0)
	L.set("engine.candgen_reported_s", st.CandWall.Seconds(), 0)
	L.set("engine.candidates", float64(st.Candidates), 0)
	if st.Candidates > 0 {
		L.set("ted.dp_avoided_share", float64(st.DPAvoided)/float64(st.Candidates), 0)
		L.set("ted.band_aborts_per_cand", float64(st.BandAborts)/float64(st.Candidates), 0)
		L.set("engine.candidate_precision", float64(st.Results)/float64(st.Candidates), 0)
	}
	L.set("core.partition_reported_s", st.PartitionTime.Seconds(), 0)
	if st.MatchTests > 0 {
		L.set("core.match_hit_share", float64(st.MatchHits)/float64(st.MatchTests), 0)
	}
	if d := float64(cacheAfter.Hits-cacheBefore.Hits) + float64(cacheAfter.Misses-cacheBefore.Misses); d > 0 {
		L.set("engine.cache_hit_share", float64(cacheAfter.Hits-cacheBefore.Hits)/d, len(out.Warm))
	}
	L.set("core.search_us", out.SearchP50*1e3, out.SearchN)
	L.set("core.search_p99_us", out.SearchP99*1e3, out.SearchN)
	L.set("core.topk_ms", topkMs, 1)
	L.set("plan.flips", float64(flips), len(joinCalls))

	if err := layerProbes(ctx, c, rec, last, queries, median(joinCalls), median(out.Warm), out); err != nil {
		return nil, err
	}
	out.Spans = rec.all()
	L.set("trace.closure_gap_share", closureGap(out.Spans, "cold"), len(out.Cold))
	// A traced rep differs from an untraced one by its five spans. Their
	// cost is far below what this machine's wall clock resolves between two
	// reps (±5 %), so it is measured on its own and set against the rep.
	L.set("trace.overhead_share", 5*spanCost().Seconds()/median(out.Cold), len(out.Cold))
	return out, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// readQueries parses the held-out trees into the corpus's own label table,
// as a caller querying that corpus must.
func readQueries(path string, lt *treejoin.LabelTable) ([]*treejoin.Tree, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return treejoin.ReadBracketLines(f, lt)
}

// searchPhase times searchSamples in-process searches, cycling through the
// queries, and checks the first oracleQueries distinct answers against brute
// force over the whole corpus. It returns the latencies in ms.
func searchPhase(ctx context.Context, cp *treejoin.Corpus, queries []*treejoin.Tree, ck *checks) ([]float64, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("no queries")
	}
	if _, err := cp.Search(ctx, queries[0], searchTau); err != nil { // builds the per-τ index
		return nil, err
	}
	answers := make([][]treejoin.Match, min(oracleQueries, len(queries)))
	ms := make([]float64, searchSamples)
	for i := range ms {
		q := queries[i%len(queries)]
		t0 := time.Now()
		m, err := cp.Search(ctx, q, searchTau)
		ms[i] = msSince(t0)
		if err != nil {
			return nil, err
		}
		if i < len(answers) {
			answers[i] = m
		}
	}
	ts := cp.Trees()
	for i, got := range answers {
		ck.expect(slices.Equal(got, bruteSearch(ts, queries[i], searchTau)), "search %d: answer differs from brute force", i)
	}
	ck.ok(len(ms) - len(answers))
	return ms, nil
}

// layerProbes takes the per-layer measurements of a traced batch run, each
// by timing a layer's public function over the workload's own trees.
func layerProbes(ctx context.Context, c joinConfig, rec *recorder, last coldRep, queries []*treejoin.Tree, coldJoin, warmJoin float64, out *joinOut) error {
	L, ck := out.Layer, &out.Checks
	cp := last.cp
	ts := cp.Trees()
	nodes := 0
	for _, t := range ts {
		nodes += t.Size()
	}

	// tree: ParseBracket over the input lines.
	text, err := os.ReadFile(c.Input)
	if err != nil {
		return err
	}
	id := rec.begin("probe ParseBracket", -1, 0)
	parseNs, parsed, err := parseProbe(text)
	if err != nil {
		return err
	}
	L.set("tree.parse_ns_per_node", parseNs, parsed)
	rec.end(id, nil)

	// ted: arena views, then the kernel replayed single-threaded over every
	// result pair of the cold join and as many seeded non-result pairs
	// inside the size window.
	id = rec.begin("probe BuildViews", -1, 0)
	t0 := time.Now()
	views := ted.BuildViews(ts)
	L.set("ted.view_build_ns_per_node", float64(time.Since(t0))/float64(nodes), len(ts))
	rec.end(id, nil)

	replay := append([]treejoin.Pair(nil), last.pairs...)
	isResult := make(map[[2]int]bool, len(replay))
	for _, p := range replay {
		isResult[[2]int{p.I, p.J}] = true
	}
	rng := rand.New(rand.NewSource(c.Seed))
	for tries := 0; len(replay) < 2*len(last.pairs) && tries < 200*len(last.pairs); tries++ {
		i, j := rng.Intn(len(ts)), rng.Intn(len(ts))
		if i > j {
			i, j = j, i
		}
		if d := ts[i].Size() - ts[j].Size(); i == j || d > c.ColdTau || -d > c.ColdTau || isResult[[2]int{i, j}] {
			continue
		}
		replay = append(replay, treejoin.Pair{I: i, J: j, Dist: -1})
	}
	id = rec.begin("probe kernel replay", -1, 0)
	scratch := ted.AcquireScratch()
	wrong := 0
	t0 = time.Now()
	for _, p := range replay {
		d, ok := ted.DistanceBoundedView(views[p.I], views[p.J], c.ColdTau, scratch, nil)
		if ok != (p.Dist >= 0) || ok && d != p.Dist {
			wrong++
		}
	}
	L.set("ted.verify_ns_per_pair", float64(time.Since(t0))/float64(len(replay)), len(replay))
	ted.ReleaseScratch(scratch)
	rec.end(id, map[string]float64{"pairs": float64(len(replay))})
	ck.expect(wrong == 0, "kernel replay: %d of %d pairs disagree with the join", wrong, len(replay))

	// engine: what the first join on a corpus pays beyond a repeat, what a
	// warm join allocates, and what the second worker buys.
	var repeat []float64
	for i := 0; i < 3; i++ {
		t0 = time.Now()
		if _, _, err := cp.SelfJoin(ctx, c.ColdTau, c.opts(workers)...); err != nil {
			return err
		}
		repeat = append(repeat, time.Since(t0).Seconds())
	}
	L.set("engine.artifact_build_s", coldJoin-median(repeat), len(repeat))

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if _, _, err := cp.SelfJoin(ctx, c.WarmTau, c.opts(workers)...); err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	L.set("engine.alloc_mb_per_join", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20), 1)

	var one []float64
	for i := 0; i < 2; i++ {
		t0 = time.Now()
		if _, _, err := cp.SelfJoin(ctx, c.WarmTau, c.opts(1)...); err != nil {
			return err
		}
		one = append(one, time.Since(t0).Seconds())
	}
	L.set("engine.speedup_w2", slices.Min(one)/warmJoin, len(one))

	// core: the first search at a τ nobody asked before builds that τ's
	// index; then KNN on the same corpus.
	fresh := searchTau + 1
	t0 = time.Now()
	if _, err := cp.Search(ctx, queries[0], fresh); err != nil {
		return err
	}
	first := msSince(t0)
	var again []float64
	for i := 0; i < 20; i++ {
		t0 = time.Now()
		if _, err := cp.Search(ctx, queries[0], fresh); err != nil {
			return err
		}
		again = append(again, msSince(t0))
	}
	L.set("core.index_build_ms", first-median(again), 1)

	var knn []float64
	for i := 0; i < 40; i++ {
		// k=1: the nearest tree is a cluster mate a few edits away. The third
		// nearest often is not, and its expanding sweep takes seconds on the
		// Swissprot profile.
		t0 = time.Now()
		m, err := cp.KNN(ctx, queries[i%len(queries)], 1)
		if err != nil {
			return err
		}
		knn = append(knn, msSince(t0))
		ck.expect(len(m) == 1, "KNN returned %d matches", len(m))
	}
	L.set("core.knn_ms", median(knn), len(knn))

	// plan: Explain on a corpus the planner has never seen, then again.
	freshCp, err := treejoin.NewCorpus(ts)
	if err != nil {
		return err
	}
	t0 = time.Now()
	if _, err := freshCp.Explain(ctx, c.ColdTau, treejoin.WithMethod(c.Method)); err != nil {
		return err
	}
	L.set("plan.explain_cold_ms", msSince(t0), 1)
	var explain []float64
	for i := 0; i < 20; i++ {
		t0 = time.Now()
		if _, err := freshCp.Explain(ctx, c.ColdTau, treejoin.WithMethod(c.Method)); err != nil {
			return err
		}
		explain = append(explain, msSince(t0)*1e3)
	}
	L.set("plan.explain_warm_us", median(explain), len(explain))

	_, err = shardedProbes(ctx, rec, ts, queries, c.ColdTau, c.opts(workers), last.digest, median(repeat), L, ck)
	return err
}

// shardedProbes compares an in-process 4-shard corpus with the single corpus
// over the same trees: warm join wall, search latency, and the cost of
// publishing one added tree. It returns the sharded warm join's median wall.
func shardedProbes(ctx context.Context, rec *recorder, ts, queries []*treejoin.Tree, tau int, opts []treejoin.Option, digest string, corpusJoin float64, L readings, ck *checks) (float64, error) {
	sc, err := treejoin.NewSharded(serveShards, ts)
	if err != nil {
		return 0, err
	}
	var joins []float64
	for i := 0; i < 3; i++ {
		id := rec.begin("probe sharded SelfJoin", -1, i)
		t0 := time.Now()
		pairs, st, err := sc.SelfJoin(ctx, tau, opts...)
		if err != nil {
			return 0, err
		}
		if i > 0 { // the first call builds every shard's artifacts
			joins = append(joins, time.Since(t0).Seconds())
		}
		rec.end(id, statsAttrs(st))
		ck.expect(pairsDigest(pairs) == digest, "sharded join %d: pair digest differs from the corpus join's", i)
	}
	L.set("sharded.selfjoin_ratio", median(joins)/corpusJoin, len(joins))

	if _, err := sc.Search(ctx, queries[0], searchTau); err != nil {
		return 0, err
	}
	var search []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		if _, err := sc.Search(ctx, queries[i%len(queries)], searchTau); err != nil {
			return 0, err
		}
		search = append(search, msSince(t0)*1e3)
	}
	L.set("sharded.search_us", median(search), len(search))

	var publish []float64
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		if _, err := sc.Add(queries[i%len(queries)]); err != nil {
			return 0, err
		}
		publish = append(publish, msSince(t0)*1e3)
	}
	L.set("sharded.publish_us", median(publish), len(publish))
	return median(joins), nil
}

// benchJoin runs one batch workload.
func benchJoin(w joinWorkload, o runOpts, dir string, d *runData) error {
	r, ck := d.r, &d.ck
	var in joinInputs
	setupS, err := timeSetup(func(int) (err error) {
		var repChecks checks
		in, err = setupJoin(w, o.seed, dir, &repChecks, r)
		*ck = repChecks // every rep checks the same things; count them once
		return err
	})
	if err != nil {
		return err
	}
	var out joinOut
	rss, err := runChild("join", joinConfig{
		Input: in.input, Queries: in.queries, Method: w.method,
		ColdTau: w.coldTau, WarmTau: w.warmTau,
		Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
	}, &out)
	if err != nil {
		return err
	}
	ck.merge(out.Checks)
	ck.ok(len(out.Cold) + len(out.Warm))

	r.set("setup_s", setupS, setupReps)
	r.set("join_cold_s", median(out.Cold), len(out.Cold))
	r.set("join_warm_s", median(out.Warm), len(out.Warm))
	r.set("ingest_trees_per_s", float64(out.Trees)/median(out.Load), len(out.Load))
	r.set("peak_rss_mb", rss, 0)
	for k, v := range out.Layer {
		r[k] = v
	}
	d.digest = out.Digest
	if o.trace {
		d.traces = append(d.traces, processSpans{Process: w.name + " child", SelfS: selfByName(out.Spans), Spans: out.Spans})
	}
	return nil
}

// joinInputs is what set-up leaves on disk for the child.
type joinInputs struct {
	input, queries string
}

// setupJoin generates the workload's inputs from the seed, writes them as
// bracket text, and checks the join against the brute-force oracle on the
// corpus prefix. On join-sparse it also runs the paper's three-method
// comparison.
func setupJoin(w joinWorkload, seed int64, dir string, ck *checks, L readings) (joinInputs, error) {
	in := joinInputs{filepath.Join(dir, "input.txt"), filepath.Join(dir, "queries.txt")}
	corpus, held := holdOut(w.generate(seed), w.holdEvery)
	if err := os.WriteFile(in.input, bracketText(corpus), 0o644); err != nil {
		return in, err
	}
	if err := os.WriteFile(in.queries, bracketText(held), 0o644); err != nil {
		return in, err
	}

	ctx := context.Background()
	prefix := corpus[:min(oracleTrees, len(corpus))]
	cp, err := treejoin.NewCorpus(prefix)
	if err != nil {
		return in, err
	}
	got, _, err := cp.SelfJoin(ctx, w.coldTau, treejoin.WithMethod(w.method), treejoin.WithWorkers(workers))
	if err != nil {
		return in, err
	}
	want, rows := bruteForce(prefix, w.coldTau, oracleBudget)
	covered := sort.Search(len(got), func(i int) bool { return got[i].I >= rows })
	ck.expect(slices.Equal(got[:covered], want), "%s: SelfJoin over the first %d trees differs from brute force in rows 0..%d", w.name, len(prefix), rows-1)

	if w.paper {
		if err := paperShape(ctx, corpus[:min(paperTrees, len(corpus))], ck, L); err != nil {
			return in, err
		}
	}
	return in, nil
}

// paperShape runs the paper's comparison (Figs. 10–13) on a prefix: PartSJ
// against the SET and STR baselines under fixed plans, so the candidate
// counts repeat exactly. It asserts only that the three agree on the result;
// which is fastest is reported, not assumed.
func paperShape(ctx context.Context, ts []*treejoin.Tree, ck *checks, L readings) error {
	cp, err := treejoin.NewCorpus(ts)
	if err != nil {
		return err
	}
	var ref []treejoin.Pair
	for _, m := range []struct {
		key    string
		method treejoin.Method
	}{{"prt", treejoin.MethodPartSJ}, {"set", treejoin.MethodSET}, {"str", treejoin.MethodSTR}} {
		t0 := time.Now()
		pairs, st, err := cp.SelfJoin(ctx, paperTau, treejoin.WithMethod(m.method), treejoin.WithFixedPlan(), treejoin.WithWorkers(workers))
		if err != nil {
			return err
		}
		L.set("paper.join_ms_"+m.key, msSince(t0), 1)
		L.set("paper.candidates_"+m.key, float64(st.Candidates), 0)
		if ref == nil {
			ref = pairs
		}
		ck.expect(slices.Equal(pairs, ref), "paper shape: %s pair list differs from PRT's", m.key)
	}
	return nil
}

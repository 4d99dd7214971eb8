package core

import (
	"cmp"
	"context"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"treejoin/internal/engine"
	"treejoin/internal/lcrs"
	"treejoin/internal/sim"
	"treejoin/internal/ted"
	"treejoin/internal/tree"
)

// Index is the frozen subgraph index of a fixed collection at one threshold:
// every tree is δ-partitioned and indexed once, and everything that needs
// PartSJ candidates over that collection — Search, KNN, and the self and
// cross joins, which probe it from every worker — shares the one instance
// for as long as the collection's epoch lasts. A query is probed against it
// exactly like the current tree in Algorithm 1 — Lemma 2 applies with the
// collection tree as the partitioned side, so no size relationship between
// query and data is required ([13, 16, 27] study the search query; PartSJ's
// index answers it directly).
//
// An Index from NewIndexCached or Compose is frozen and safe for concurrent
// use; probing state is per call. The one an Incremental grows is confined to
// it, like the Incremental itself.
type Index struct {
	opts   Options
	ts     []*tree.Tree
	cache  *engine.Cache
	ix     *invIndex
	smalls []int32 // trees below δ nodes, ascending (size, position)
	// views holds the default verifier's arena views beside ts in the index
	// an Incremental grows; nil in a frozen index, whose probes draw them
	// from the cache.
	views []*ted.TreeView
}

// DefaultIndexCacheCap is the default bound on a corpus part's per-threshold
// index cache: one full PartSJ index is retained per cached threshold, so the
// cap trades rebuild time against memory. The expanding-threshold search
// behind KNN and TopK (sim.ExpandTau) visits geometrically spaced thresholds
// — at most ⌊log₂(tauCap)⌋+2 of them per query, where tauCap = max tree size +
// query size — so the default covers a full worst-case sweep for
// tree-plus-query sizes up to ~16K nodes. A smaller cap makes a sweep longer
// than the cap cycle the LRU (each query rebuilding every index). A corpus
// bounds its whole-membership index caches by the same cap.
const DefaultIndexCacheCap = 16

// Match is one search hit: collection position and exact distance.
type Match struct {
	Pos  int
	Dist int
}

// SortMatches orders hits by ascending position: Search's result order.
func SortMatches(ms []Match) {
	slices.SortFunc(ms, func(a, b Match) int { return cmp.Compare(a.Pos, b.Pos) })
}

// CompareMatchesByDist orders hits by (Dist, Pos): the k-nearest result order.
func CompareMatchesByDist(a, b Match) int {
	return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.Pos, b.Pos))
}

// NewIndexCached partitions and indexes every tree of ts for probes with
// threshold opts.Tau ≥ 0; the verifier options are used by Search. Per-tree
// artifacts (binary views and δ-partitions) come from cache, so an index built
// over a corpus's trees reuses the signatures earlier indexes computed — and
// indexes at other thresholds reuse at least the views. A nil cache computes
// everything locally. The build runs on opts.Workers goroutines (partitioning
// and program compilation per tree; see buildInvIndex).
func NewIndexCached(ts []*tree.Tree, opts Options, cache *engine.Cache) *Index {
	delta := opts.delta()
	partKey := partitionCacheKey(delta)
	return newIndex(ts, opts, cache, sim.NormalizeWorkers(opts.Workers), func(i int, st *partitionState) *Partition {
		return cachedPartition(cache, ts[i], nil, partKey, delta, st)
	})
}

// newIndex builds the index over ts on workers goroutines, part(i) giving
// the δ-partition of tree i of at least δ nodes; the smaller trees go to the
// small-tree list.
func newIndex(ts []*tree.Tree, opts Options, cache *engine.Cache, workers int, part func(i int, st *partitionState) *Partition) *Index {
	x := &Index{opts: opts, ts: ts, cache: cache}
	delta := opts.delta()
	x.ix = buildInvIndex(opts.Tau, len(ts), workers, func(i int, st *partitionState) *Partition {
		if ts[i].Size() < delta {
			return nil
		}
		return part(i, st)
	})
	for i, t := range ts {
		if t.Size() < delta {
			x.smalls = append(x.smalls, int32(i))
		}
	}
	slices.SortStableFunc(x.smalls, func(a, b int32) int { return cmp.Compare(ts[a].Size(), ts[b].Size()) })
	return x
}

// Compose returns the index over ts put together from len(at) parts:
// part(k) returns the index over part k's trees (all parts at one
// threshold), whose tree i is tree at[k][i] of ts, each at[k] ascending and
// together a partition of ts's positions. The result holds
// exactly the postings NewIndexCached over ts would, in the same order in
// every list, so a probe of it visits what a probe of the whole build visits.
// Composing costs a copy of the parts' postings, not their partitioning; one
// part is its own composition and comes back as is.
func Compose(ts []*tree.Tree, at [][]int32, part func(k int) *Index) *Index {
	if len(at) == 1 {
		return part(0)
	}
	x := &Index{ts: ts}
	runs := make([]*invIndex, len(at))
	for k := range at {
		px := part(k)
		x.opts, x.cache, runs[k] = px.opts, px.cache, px.ix
		for _, i := range px.smalls {
			x.smalls = append(x.smalls, at[k][i])
		}
	}
	x.ix = concat(x.opts.Tau, runs, at)
	slices.SortFunc(x.smalls, func(a, b int32) int { return cmp.Or(cmp.Compare(ts[a].Size(), ts[b].Size()), cmp.Compare(a, b)) })
	return x
}

// searchCtxStride bounds how many probe nodes run between context checks.
const searchCtxStride = 64

// SearchCtx returns the collection trees within TED τ of q, in ascending
// collection order, verifying as the index's options say, and adds the
// probe's and the verifier's counters to stats (nil: dropped). Cancellation
// aborts the probe and verification loops promptly and returns ctx's error
// with nil matches. The query's arena view is built once per call and never
// stored, so query traffic cannot pin corpus cache memory.
func (x *Index) SearchCtx(ctx context.Context, q *tree.Tree, stats *sim.Stats) ([]Match, error) {
	if stats == nil {
		stats = new(sim.Stats)
	}
	var tc ted.Counters
	var out []Match
	err := x.probeVerify(ctx, q, lcrs.Build(q), nil, nil, 1, stats, &tc, func(pos, dist int) {
		out = append(out, Match{Pos: pos, Dist: dist})
	})
	sim.AddVerifyCounters(stats, &tc)
	if err != nil {
		return nil, err
	}
	stats.Results += int64(len(out))
	SortMatches(out)
	return out, nil
}

// probeVerify is the one-tree probe behind Search and Incremental.Add: it
// finds q's partners in the index over the two-sided size window
// [|q|−τ, |q|+τ] (partners, screen as there; b is q's binary view), verifies
// them against q on workers goroutines, and hands each tree within τ to emit
// as its collection position and distance, in no particular order. The
// candidates are trees 0..n−1 of the verified collection and q is tree n. The
// default verifier is the τ-banded bounded TED over arena views: the
// candidates' come from views, kept beside the trees, or else through the
// artifact cache in one batch; q's is qv, built here when nil. stats and tc
// take the probe's and the verifier's counters. A cancelled probe returns
// ctx's error.
func (x *Index) probeVerify(ctx context.Context, q *tree.Tree, b *lcrs.Bin, qv *ted.TreeView, screen func(int32) bool, workers int, stats *sim.Stats, tc *ted.Counters, emit func(pos, dist int)) error {
	start := time.Now()
	var cands []int32
	err := x.partners(ctx, b, b.Size()+x.opts.Tau, noTieLimit, stats, screen, func(j int32) { cands = append(cands, j) })
	stats.CandTime += time.Since(start)
	if err != nil || len(cands) == 0 {
		return err
	}
	n := len(cands)
	pairs := make([]sim.Candidate, n)
	for k := range pairs {
		pairs[k] = sim.Candidate{I: k, J: n}
	}
	var factory sim.BatchVerifierFactory
	if x.opts.Verifier != nil {
		factory = sim.AdaptVerifier(append(x.trees(cands), q), x.opts.Verifier)
	} else {
		views := make([]*ted.TreeView, 0, n+1)
		if x.views == nil {
			views = append(views, engine.ArenaFor(x.cache, x.trees(cands), 1)...)
		} else {
			for _, i := range cands {
				views = append(views, x.views[i])
			}
		}
		if qv == nil {
			qv = ted.BuildViews([]*tree.Tree{q})[0]
		}
		factory = engine.NewArenaVerifiers(append(views, qv), tc)
	}
	sim.VerifyStreamBatched(ctx, pairs, x.opts.Tau, factory, workers, stats, func(p sim.Pair) bool {
		emit(int(cands[p.I]), p.Dist)
		return true
	})
	return ctx.Err()
}

// trees returns the index's trees at the positions at, with room for one more.
func (x *Index) trees(at []int32) []*tree.Tree {
	ts := make([]*tree.Tree, len(at), len(at)+1)
	for k, i := range at {
		ts[k] = x.ts[i]
	}
	return ts
}

// probeState is one probe's partner bookkeeping: a stamp per indexed tree,
// gen<<2 | code, so one zeroed array serves every probe (gen starts at 1) and
// each partner is screened at most once and emitted at most once per probe;
// and the match test's scratch. Probes draw them from one pool, so a probe
// pays for neither: a stamp array serves any index no larger than it, since a
// probe only ever reads the stamps of its own generation.
type probeState struct {
	stamp []uint32
	gen   uint32
	sc    matchScratch
}

var probeStates = sync.Pool{New: func() any { return new(probeState) }}

// Stamp codes.
const (
	stPassed  = 1 // screen passed; match tests pending
	stKilled  = 2 // screen refused the partner; skip its remaining entries
	stEmitted = 3 // partner emitted; skip its remaining entries
)

// partners finds the partners of probe tree b among the index's trees of
// sizes |b|−τ to hi, of size hi only those numbered below tie (Algorithm 1,
// lines 5–10): the trees too small to partition, and those with a subgraph
// that matches at a node of b (Lemma 2). Each is offered to screen (nil keeps
// all) once, before any of its match tests, and a survivor goes to emit once.
// It is the only walk of the index for a probe tree. A self join's probe
// passes hi = |b| and its own number as tie: the trees before it in the
// (size, number) order, what Algorithm 1's on-the-fly index held then. Cross
// joins and probeVerify pass hi = |b|+τ and noTieLimit.
// The context is checked every searchCtxStride probe nodes; a cancelled probe
// returns ctx's error.
func (x *Index) partners(ctx context.Context, b *lcrs.Bin, hi int, tie int32, stats *sim.Stats, screen func(int32) bool, emit func(int32)) error {
	lo := max(b.Size()-x.opts.Tau, 1)
	from := sort.Search(len(x.smalls), func(i int) bool { return x.ts[x.smalls[i]].Size() >= lo })
	for _, o := range x.smalls[from:] {
		if so := x.ts[o].Size(); so > hi || so == hi && o >= tie {
			break
		}
		if screen == nil || screen(o) {
			stats.SmallTreeFallback++
			emit(o)
		}
	}
	ps := probeStates.Get().(*probeState)
	defer probeStates.Put(ps)
	if n := len(x.ts) - len(ps.stamp); n > 0 {
		ps.stamp = append(ps.stamp, make([]uint32, n)...)
	}
	if ps.gen == math.MaxUint32>>2 {
		clear(ps.stamp)
		ps.gen = 0
	}
	ps.gen++
	gen := ps.gen
	for k, n := range b.Order {
		if k%searchCtxStride == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		stats.SubgraphProbes += x.ix.probe(b, n, lo, hi, tie, func(e posting) {
			switch st := ps.stamp[e.tree]; {
			case st>>2 != gen:
				if screen != nil && !screen(e.tree) {
					ps.stamp[e.tree] = gen<<2 | stKilled
					return
				}
				ps.stamp[e.tree] = gen<<2 | stPassed
			case st&3 != stPassed: // already emitted or killed this probe
				return
			}
			stats.MatchTests++
			if x.ix.matches(e, b, n, &ps.sc) {
				stats.MatchHits++
				ps.stamp[e.tree] = gen<<2 | stEmitted
				emit(e.tree)
			}
		})
	}
	return nil
}

package core

import (
	"cmp"
	"context"
	"math/rand"
	"slices"
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
// An Index is immutable after NewIndexCached and safe for concurrent use;
// probing state is per call.
type Index struct {
	opts   Options
	ts     []*tree.Tree
	cache  *engine.Cache
	ix     *invIndex
	smalls []int32 // trees below δ nodes, ascending (size, position)
	built  time.Duration
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
// and program compilation per tree; see buildInvIndex), except under
// RandomPartition, whose RNG stream is sequential.
func NewIndexCached(ts []*tree.Tree, opts Options, cache *engine.Cache) *Index {
	start := time.Now()
	x := &Index{opts: opts, ts: ts, cache: cache}
	delta, workers := opts.delta(), sim.NormalizeWorkers(opts.Workers)
	partKey := partitionCacheKey(delta)
	var rng *rand.Rand
	if opts.RandomPartition {
		rng, workers = rand.New(rand.NewSource(opts.Seed)), 1
	}
	x.ix = buildInvIndex(opts.Tau, opts.Position, len(ts), workers, func(i int, st *partitionState) *Partition {
		switch {
		case ts[i].Size() < delta:
			return nil
		case rng != nil:
			return ComputeRandom(cachedBin(cache, ts[i]), delta, rng)
		}
		return cachedPartition(cache, ts[i], nil, partKey, delta, st)
	})
	for i, t := range ts {
		if t.Size() < delta {
			x.smalls = append(x.smalls, int32(i))
		}
	}
	slices.SortStableFunc(x.smalls, func(a, b int32) int { return cmp.Compare(ts[a].Size(), ts[b].Size()) })
	x.built = time.Since(start)
	return x
}

// Compose returns the index over ts put together from len(at) parts:
// part(k) returns the index over part k's trees (all parts at one threshold
// and position mode), whose tree i is tree at[k][i] of ts, each at[k]
// ascending and together a partition of ts's positions. The result holds
// exactly the postings NewIndexCached over ts would, in the same order in
// every list, so a probe of it visits what a probe of the whole build visits.
// Composing costs a copy of the parts' postings, not their partitioning; one
// part is its own composition and comes back as is.
func Compose(ts []*tree.Tree, at [][]int32, part func(k int) *Index) *Index {
	if len(at) == 1 {
		return part(0)
	}
	start := time.Now()
	x := &Index{ts: ts}
	runs := make([]*invIndex, len(at))
	for k := range at {
		px := part(k)
		x.opts, x.cache, runs[k] = px.opts, px.cache, px.ix
		for _, i := range px.smalls {
			x.smalls = append(x.smalls, at[k][i])
		}
	}
	x.ix = concat(x.opts.Tau, x.opts.Position, runs, at)
	slices.SortFunc(x.smalls, func(a, b int32) int { return cmp.Or(cmp.Compare(ts[a].Size(), ts[b].Size()), cmp.Compare(a, b)) })
	x.built = time.Since(start)
	return x
}

// covers reports whether the index was built over exactly ts, in order, at
// o's threshold and position mode: the check that keeps a resolver's index
// from answering for another membership.
func (x *Index) covers(ts []*tree.Tree, o Options) bool {
	return x.opts.Tau == o.Tau && x.opts.Position == o.Position && slices.Equal(ts, x.ts)
}

// Len returns the collection size.
func (x *Index) Len() int { return len(x.ts) }

// Tree returns the i-th collection tree.
func (x *Index) Tree(i int) *tree.Tree { return x.ts[i] }

// Tau returns the threshold the index was built for.
func (x *Index) Tau() int { return x.opts.Tau }

// Search returns the collection trees within TED τ of q, in ascending
// collection order, verifying as the index's options say.
func (x *Index) Search(q *tree.Tree) []Match {
	ms, _ := x.SearchCtx(context.Background(), q)
	return ms
}

// searchCtxStride bounds how many probe nodes (or verifications) run between
// context checks.
const searchCtxStride = 64

// SearchCtx is Search under a context: cancellation aborts the probe and
// verification loops promptly and returns ctx's error with nil matches.
func (x *Index) SearchCtx(ctx context.Context, q *tree.Tree) ([]Match, error) {
	b := lcrs.Build(q)
	sz := q.Size()
	tau := x.opts.Tau
	seen := make(map[int32]bool)
	var cands []int
	for _, i := range x.smalls {
		if d := x.ts[i].Size() - sz; d >= -tau && d <= tau {
			cands = append(cands, int(i))
		}
	}
	minSize := sz - tau
	if minSize < 1 {
		minSize = 1
	}
	var sc matchScratch
	for k, n := range b.Order {
		if k%searchCtxStride == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		x.ix.probe(b, n, minSize, sz+tau, noTieLimit, func(e posting) {
			if seen[e.tree] {
				return
			}
			if x.ix.matches(e, b, n, &sc) {
				seen[e.tree] = true
				cands = append(cands, int(e.tree))
			}
		})
	}
	// The default verifier is the τ-banded bounded TED over arena views: the
	// candidates' views come through the index's artifact cache in one batch,
	// and the query's view is built once per call, when there is a candidate
	// to verify, and never stored, so query traffic cannot pin corpus cache
	// memory.
	verify := func(k int) (int, bool) { return x.opts.Verifier(x.ts[cands[k]], q, tau) }
	if x.opts.Verifier == nil && len(cands) > 0 {
		cts := make([]*tree.Tree, len(cands))
		for k, i := range cands {
			cts[k] = x.ts[i]
		}
		views := engine.ArenaFor(x.cache, cts, 1)
		qv := ted.BuildViews([]*tree.Tree{q})[0]
		s := ted.AcquireScratch()
		defer ted.ReleaseScratch(s)
		verify = func(k int) (int, bool) { return ted.DistanceBoundedView(views[k], qv, tau, s, nil) }
	}
	var out []Match
	for k, i := range cands {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if d, ok := verify(k); ok {
			out = append(out, Match{Pos: i, Dist: d})
		}
	}
	SortMatches(out)
	return out, nil
}

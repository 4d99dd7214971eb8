package treejoin

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"slices"
	"sync"
	"sync/atomic"

	"treejoin/internal/core"
	"treejoin/internal/sim"
)

// ErrShardCount reports a shard count below 1 passed to NewSharded or
// OpenSharded.
var ErrShardCount = errors.New("treejoin: shard count must be at least 1")

// ShardedCorpus partitions one logical corpus across N independent Corpus
// shards — the paper's §6 trade of shared state for parallelism, packaged
// behind the exact Corpus query surface. Membership is hash-partitioned by
// stable global id (id mod N picks the home shard), and the partitioning is
// transparent: every query reports global positions/ids identical — pair
// for pair, match for match — to a single Corpus built over the same trees
// in the same order, because every method is exact and the fan-out merely
// decomposes the same result set.
//
// SelfJoin decomposes into N intra-shard self joins plus the
// fragment-and-replicate cross-shard rounds (one cross join per shard pair;
// within each round the engine's own task decomposition applies), run
// concurrently on a bounded pool. Join, Search, TopK, and KNN fan out per
// shard and merge; per-round execution statistics are rolled up into one
// Stats. Add and Remove route each tree to its home shard and publish a new
// sharded state snapshot, so queries are snapshot-isolated across all shards
// at once: View pins the epoch — every per-shard membership and the global
// id mapping — for as long as the caller holds it, exactly the seam a server
// uses to keep one request on one consistent multi-shard state while writers
// proceed.
//
// A ShardedCorpus built by OpenSharded is durable: a backing persistent
// Corpus (the segstore) is the source of truth — mutations write through it
// first — while the shards themselves stay in-memory views over the store's
// trees.
//
// A ShardedCorpus is safe for concurrent use; mutations serialise against
// each other and never block queries.
type ShardedCorpus struct {
	shards  []*Corpus
	backing *Corpus // durable source of truth (OpenSharded); nil in-memory

	writeMu sync.Mutex
	state   atomic.Pointer[shardedState]

	// globalByShard[s][localID] = global id of the tree shard s knows by
	// that shard-local id. Local ids are assigned densely by the shard's own
	// Add and never reused, so the slice is append-only; guarded by writeMu.
	globalByShard [][]int
}

// shardedState is one immutable epoch of the sharded corpus: the global
// membership (insertion order of the survivors — the order a single Corpus
// over the same history would hold), per-shard frozen snapshot views, and
// the local-position → global-position maps that translate every shard
// result back into the global space.
type shardedState struct {
	epoch  int64
	lt     *LabelTable
	trees  []*Tree
	ids    []int // global id by global position; ascending, so posOf bisects
	nextID int

	views    []*Corpus // one frozen Snapshot per shard
	toGlobal [][]int   // toGlobal[s][localPos] = global position
}

// NewSharded validates ts (no nil trees, one shared LabelTable) and returns
// a corpus over it partitioned across n shards. Global ids are assigned
// 0..len(ts)-1 in order, exactly as NewCorpus would, and tree i lives on
// shard i mod n. Options are corpus-level and apply to every shard
// (currently WithIndexCacheCap).
func NewSharded(n int, ts []*Tree, opts ...Option) (*ShardedCorpus, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w (got %d)", ErrShardCount, n)
	}
	var lt *LabelTable
	for i, t := range ts {
		if t == nil {
			return nil, fmt.Errorf("%w at index %d", ErrNilTree, i)
		}
		if lt == nil {
			lt = t.Labels
		} else if t.Labels != lt {
			return nil, fmt.Errorf("%w (tree %d)", ErrLabelTable, i)
		}
	}
	sc := &ShardedCorpus{
		shards:        make([]*Corpus, n),
		globalByShard: make([][]int, n),
	}
	for s := range sc.shards {
		cp, err := NewCorpus(nil, opts...)
		if err != nil {
			return nil, err
		}
		sc.shards[s] = cp
	}
	ids := make([]int, len(ts))
	for i := range ts {
		ids[i] = i
	}
	if err := sc.seed(ts, ids); err != nil {
		return nil, err
	}
	sc.publishLocked(&shardedState{epoch: -1}, ids, ts, len(ts), lt, nil)
	return sc, nil
}

// OpenSharded opens (or creates) the persistent corpus at dir — see Open —
// and serves it through n shards. The backing store remains the single
// source of truth: global ids are the store's stable tree ids, every Add
// reaches the store's WAL before it is queryable, and every Remove
// tombstones there first; the shards are in-memory partitions over the
// store's trees, rebuilt from it on every open. Close the returned corpus
// to release the store.
func OpenSharded(dir string, n int, opts ...Option) (*ShardedCorpus, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w (got %d)", ErrShardCount, n)
	}
	backing, err := Open(dir, opts...)
	if err != nil {
		return nil, err
	}
	sc := &ShardedCorpus{
		backing:       backing,
		shards:        make([]*Corpus, n),
		globalByShard: make([][]int, n),
	}
	for s := range sc.shards {
		cp, err := NewCorpus(nil, opts...)
		if err != nil {
			backing.Close()
			return nil, err
		}
		sc.shards[s] = cp
	}
	bst := backing.state.Load()
	if err := sc.seed(bst.ts, bst.ids); err != nil {
		backing.Close()
		return nil, err
	}
	sc.publishLocked(&shardedState{epoch: -1}, bst.ids, bst.ts, bst.nextID, bst.lt, nil)
	return sc, nil
}

// seed distributes trees with known global ids to their home shards,
// recording the local-id → global-id mapping. Caller owns writeMu (or the
// corpus is not yet published).
func (sc *ShardedCorpus) seed(ts []*Tree, ids []int) error {
	n := len(sc.shards)
	batches := make([][]*Tree, n)
	gids := make([][]int, n)
	for i, t := range ts {
		s := ids[i] % n
		batches[s] = append(batches[s], t)
		gids[s] = append(gids[s], ids[i])
	}
	for s := range sc.shards {
		if len(batches[s]) == 0 {
			continue
		}
		if _, err := sc.shards[s].Add(batches[s]...); err != nil {
			return err
		}
		sc.globalByShard[s] = append(sc.globalByShard[s], gids[s]...)
	}
	return nil
}

// posOf returns the global position of the tree with the given global id;
// global ids ascend with position, as a Corpus's do.
func (st *shardedState) posOf(id int) (int, bool) { return slices.BinarySearch(st.ids, id) }

// publishLocked builds and swaps in the next sharded state: global order
// ids/trees, fresh snapshot views for the touched shards (nil touched means
// all), and the rebuilt position maps. Caller owns writeMu (or the corpus is
// not yet published).
func (sc *ShardedCorpus) publishLocked(prev *shardedState, ids []int, trees []*Tree, nextID int, lt *LabelTable, touched map[int]bool) {
	ns := &shardedState{
		epoch:    prev.epoch + 1,
		lt:       lt,
		trees:    trees,
		ids:      ids,
		nextID:   nextID,
		views:    make([]*Corpus, len(sc.shards)),
		toGlobal: make([][]int, len(sc.shards)),
	}
	for s := range sc.shards {
		if touched == nil || touched[s] || prev.views == nil {
			ns.views[s] = sc.shards[s].Snapshot()
		} else {
			ns.views[s] = prev.views[s]
		}
		ns.toGlobal[s] = make([]int, 0, ns.views[s].Len())
	}
	// Global id g lives on shard g mod n, and a shard holds its trees in
	// ascending global id, so one pass over the global order fills every
	// shard's local-position → global-position map in local order.
	for p, id := range ids {
		s := id % len(sc.shards)
		ns.toGlobal[s] = append(ns.toGlobal[s], p)
	}
	sc.state.Store(ns)
}

// NumShards returns the shard count.
func (sc *ShardedCorpus) NumShards() int { return len(sc.shards) }

// Len returns the number of live trees across all shards.
func (sc *ShardedCorpus) Len() int { return len(sc.state.Load().trees) }

// Epoch returns the sharded corpus's mutation epoch: 0 at construction,
// bumped by every Add and Remove batch.
func (sc *ShardedCorpus) Epoch() int64 { return sc.state.Load().epoch }

// Labels returns the shared label table every tree added to the corpus must
// be built against (nil while an in-memory sharded corpus is still empty).
func (sc *ShardedCorpus) Labels() *LabelTable { return sc.state.Load().lt }

// Tree, ID, and PosOf address the current state's global membership exactly
// as their Corpus counterparts do.
func (sc *ShardedCorpus) Tree(i int) *Tree         { return sc.state.Load().trees[i] }
func (sc *ShardedCorpus) ID(i int) int             { return sc.state.Load().ids[i] }
func (sc *ShardedCorpus) PosOf(id int) (int, bool) { return sc.state.Load().posOf(id) }

// CacheStats sums the signature-cache counters across the shards.
func (sc *ShardedCorpus) CacheStats() CacheStats {
	var total CacheStats
	for _, cp := range sc.shards {
		st := cp.CacheStats()
		total.Hits += st.Hits
		total.Misses += st.Misses
		total.Entries += st.Entries
	}
	return total
}

// StoreStats reports the backing store's statistics; ok is false for an
// in-memory sharded corpus.
func (sc *ShardedCorpus) StoreStats() (StoreStats, bool) {
	if sc.backing == nil {
		return StoreStats{}, false
	}
	return sc.backing.StoreStats()
}

// Close releases the backing store of a durable sharded corpus; a no-op for
// an in-memory one. Queries over already-loaded state keep working.
func (sc *ShardedCorpus) Close() error {
	if sc.backing == nil {
		return nil
	}
	return sc.backing.Close()
}

// Add appends ts to the corpus and returns their stable global ids, with
// Corpus.Add's contract: full batch validation first (so the mutation is
// atomic — no shard is touched unless every tree is acceptable), write-through
// to the backing store when durable (an ErrDegraded store rejects the batch
// before any shard mutates), then one new sharded state visible to every
// later View at once.
func (sc *ShardedCorpus) Add(ts ...*Tree) ([]int, error) {
	if len(ts) == 0 {
		return nil, nil
	}
	sc.writeMu.Lock()
	defer sc.writeMu.Unlock()
	st := sc.state.Load()
	lt := st.lt
	for i, t := range ts {
		if t == nil {
			return nil, fmt.Errorf("%w (added tree %d)", ErrNilTree, i)
		}
		if lt == nil {
			lt = t.Labels
		} else if t.Labels != lt {
			return nil, fmt.Errorf("%w (added tree %d)", ErrLabelTable, i)
		}
	}
	var ids []int
	nextID := st.nextID
	if sc.backing != nil {
		var err error
		if ids, err = sc.backing.Add(ts...); err != nil {
			return nil, err
		}
		nextID = sc.backing.state.Load().nextID
	} else {
		ids = make([]int, len(ts))
		for i := range ts {
			ids[i] = st.nextID + i
		}
		nextID = st.nextID + len(ts)
	}
	touched := make(map[int]bool, len(sc.shards))
	n := len(sc.shards)
	batches := make([][]*Tree, n)
	gids := make([][]int, n)
	for i, t := range ts {
		s := ids[i] % n
		batches[s] = append(batches[s], t)
		gids[s] = append(gids[s], ids[i])
		touched[s] = true
	}
	for s := range sc.shards {
		if len(batches[s]) == 0 {
			continue
		}
		if _, err := sc.shards[s].Add(batches[s]...); err != nil {
			// Unreachable after the validation above (in-memory shards only
			// reject nil trees and table mismatches), but never publish a
			// state that does not reflect the shards.
			return nil, err
		}
		sc.globalByShard[s] = append(sc.globalByShard[s], gids[s]...)
	}
	nids := make([]int, 0, len(st.ids)+len(ids))
	nids = append(append(nids, st.ids...), ids...)
	ntrees := make([]*Tree, 0, len(st.trees)+len(ts))
	ntrees = append(append(ntrees, st.trees...), ts...)
	sc.publishLocked(st, nids, ntrees, nextID, lt, touched)
	return ids, nil
}

// Remove deletes the trees with the given global ids and returns how many
// were removed, with Corpus.Remove's contract: unknown ids are skipped,
// positions stay dense in insertion order, a degraded backing store aborts
// the whole mutation (0 removed), and in-flight Views keep their snapshot.
func (sc *ShardedCorpus) Remove(ids ...int) int {
	if len(ids) == 0 {
		return 0
	}
	sc.writeMu.Lock()
	defer sc.writeMu.Unlock()
	st := sc.state.Load()
	gone := make(map[int]bool, len(ids))
	for _, id := range ids {
		if _, ok := st.posOf(id); ok {
			gone[id] = true
		}
	}
	if len(gone) == 0 {
		return 0
	}
	live := make([]int, 0, len(gone))
	for id := range gone {
		live = append(live, id)
	}
	if sc.backing != nil {
		if n := sc.backing.Remove(live...); n == 0 {
			// The store is degraded: nothing was unpublished there, so
			// nothing is removed here either.
			return 0
		}
	}
	n := len(sc.shards)
	batches := make([][]int, n)
	touched := make(map[int]bool, n)
	for _, id := range live {
		batches[id%n] = append(batches[id%n], id)
		touched[id%n] = true
	}
	for s := range sc.shards {
		if len(batches[s]) == 0 {
			continue
		}
		// Shard-local ids equal global ids only by accident; translate
		// through the per-shard mapping.
		lids := make([]int, 0, len(batches[s]))
		for lid, gid := range sc.globalByShard[s] {
			if gone[gid] {
				lids = append(lids, lid)
			}
		}
		sc.shards[s].Remove(lids...)
	}
	nids := make([]int, 0, len(st.ids)-len(gone))
	ntrees := make([]*Tree, 0, len(st.trees)-len(gone))
	for p, id := range st.ids {
		if gone[id] {
			continue
		}
		nids = append(nids, id)
		ntrees = append(ntrees, st.trees[p])
	}
	sc.publishLocked(st, nids, ntrees, st.nextID, st.lt, touched)
	return len(gone)
}

// View pins the current epoch as a ShardedView: a consistent snapshot of
// every shard's membership and the global id mapping at once. Queries on the
// view run against exactly this state however the corpus mutates afterwards
// — the per-request isolation seam cmd/treejoind uses. Views are cheap (one
// atomic load) and need no release.
func (sc *ShardedCorpus) View() *ShardedView {
	return &ShardedView{st: sc.state.Load()}
}

// Query methods on the corpus itself pin a fresh view per call, exactly as
// Corpus queries pin their state.

// SelfJoin reports every unordered pair of corpus trees within TED tau, in
// ascending global (I, J) order, with the per-round execution statistics
// rolled up into one Stats; see ShardedView.SelfJoin.
func (sc *ShardedCorpus) SelfJoin(ctx context.Context, tau int, opts ...Option) ([]Pair, Stats, error) {
	return sc.View().SelfJoin(ctx, tau, opts...)
}

// SelfJoinSeq is the streaming SelfJoin, with Corpus.SelfJoinSeq's contract
// (unordered pairs, WithStats for the rolled-up statistics).
func (sc *ShardedCorpus) SelfJoinSeq(ctx context.Context, tau int, opts ...Option) (iter.Seq[Pair], error) {
	return sc.View().SelfJoinSeq(ctx, tau, opts...)
}

// Join reports every cross pair within tau against other, Pair.I in global
// positions, Pair.J in other's positions; see ShardedView.Join.
func (sc *ShardedCorpus) Join(ctx context.Context, other *Corpus, tau int, opts ...Option) ([]Pair, Stats, error) {
	return sc.View().Join(ctx, other, tau, opts...)
}

// Search reports every corpus tree within TED tau of q, ascending global
// position order; see ShardedView.Search.
func (sc *ShardedCorpus) Search(ctx context.Context, q *Tree, tau int, opts ...Option) ([]Match, error) {
	return sc.View().Search(ctx, q, tau, opts...)
}

// TopK returns the k closest pairs by TED, ordered by (Dist, I, J); see
// ShardedView.TopK.
func (sc *ShardedCorpus) TopK(ctx context.Context, k int, opts ...Option) ([]Pair, error) {
	return sc.View().TopK(ctx, k, opts...)
}

// KNN returns the k trees closest to q, ordered by (Dist, Pos); see
// ShardedView.KNN.
func (sc *ShardedCorpus) KNN(ctx context.Context, q *Tree, k int, opts ...Option) ([]Match, error) {
	return sc.View().KNN(ctx, q, k, opts...)
}

// ShardedView is a pinned epoch of a ShardedCorpus: all queries run against
// the exact multi-shard membership the View call observed, while writers
// proceed. The zero value is not valid; obtain views from
// ShardedCorpus.View.
type ShardedView struct {
	st *shardedState
}

// Len, Epoch, Tree, ID, and PosOf read the pinned state.
func (v *ShardedView) Len() int                 { return len(v.st.trees) }
func (v *ShardedView) Epoch() int64             { return v.st.epoch }
func (v *ShardedView) Tree(i int) *Tree         { return v.st.trees[i] }
func (v *ShardedView) ID(i int) int             { return v.st.ids[i] }
func (v *ShardedView) PosOf(id int) (int, bool) { return v.st.posOf(id) }

// shardRound is one unit of the self-join decomposition: an intra-shard self
// join (b == -1) or a cross-shard fragment-and-replicate round (a < b).
type shardRound struct{ a, b int }

// streamSelf fans the self join out over the pinned shards — every
// intra-shard self join plus one cross join per shard pair — streaming each
// verified pair, remapped to global positions, through a serialised sink.
// Per-round statistics are rolled up into the returned Stats. The sink may
// stop the stream by returning false; that is not an error.
func (v *ShardedView) streamSelf(ctx context.Context, tau int, c config, sink sim.EmitFunc) (*sim.Stats, error) {
	if _, _, err := c.pipelineChecked(tau); err != nil {
		return nil, err
	}
	st := v.st
	var rounds []shardRound
	for s := range st.views {
		if st.views[s].Len() >= 2 {
			rounds = append(rounds, shardRound{s, -1})
		}
	}
	for a := range st.views {
		if st.views[a].Len() == 0 {
			continue
		}
		for b := a + 1; b < len(st.views); b++ {
			if st.views[b].Len() > 0 {
				rounds = append(rounds, shardRound{a, b})
			}
		}
	}
	rollup := &sim.Stats{Trees: len(st.trees)}
	if len(rounds) == 0 {
		return rollup, ctx.Err()
	}
	// The round pool carries the caller's worker budget: the rounds
	// themselves run concurrently, and whatever budget exceeds the round
	// count parallelises inside the rounds.
	pool := sim.NormalizeWorkers(c.workers)
	if pool > len(rounds) {
		c.workers = pool / len(rounds)
		pool = len(rounds)
	} else {
		c.workers = 1
	}
	c.statsDst = nil // one rollup is published, never per-round racing writes

	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var mu sync.Mutex // serialises the sink and guards stopped/firstErr/parts
	var stopped bool
	var firstErr error
	parts := make([]*sim.Stats, len(rounds))
	emit := func(p Pair) bool {
		mu.Lock()
		defer mu.Unlock()
		if stopped {
			return false
		}
		if !sink(p) {
			stopped = true
			cancel()
			return false
		}
		return true
	}
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < pool; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(rounds) {
					return
				}
				r := rounds[i]
				var stats *sim.Stats
				var err error
				if r.b < 0 {
					tg := st.toGlobal[r.a]
					stats, err = st.views[r.a].streamSelfWith(rctx, tau, c, func(p Pair) bool {
						return emit(globalPair(tg[p.I], tg[p.J], p.Dist))
					})
				} else {
					tga, tgb := st.toGlobal[r.a], st.toGlobal[r.b]
					stats, err = st.views[r.a].streamJoinWith(rctx, st.views[r.b], tau, c, func(p Pair) bool {
						return emit(globalPair(tga[p.I], tgb[p.J], p.Dist))
					})
				}
				mu.Lock()
				parts[i] = stats
				if err != nil && firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for _, p := range parts {
		foldStats(rollup, p)
	}
	// An early sink stop cancels the round context by design; only the
	// caller's own cancellation (or a genuine round failure) is an error.
	switch {
	case ctx.Err() != nil:
		return rollup, ctx.Err()
	case stopped:
		return rollup, nil
	default:
		return rollup, firstErr
	}
}

// globalPair normalises a remapped pair into canonical I < J order (shard
// positions preserve no global ordering).
func globalPair(i, j, dist int) Pair {
	if i > j {
		i, j = j, i
	}
	return Pair{I: i, J: j, Dist: dist}
}

// foldStats rolls one round's statistics into the total: counters and times
// sum (CPU effort, as the engine's own sharded plan reports), stages merge
// by name in first-seen order, and the effective source is kept when every
// round agrees ("mixed" otherwise — shards can plan independently).
func foldStats(total, st *sim.Stats) {
	if st == nil {
		return
	}
	total.Candidates += st.Candidates
	total.Results += st.Results
	total.CandTime += st.CandTime
	total.VerifyTime += st.VerifyTime
	total.CandWall += st.CandWall
	total.PartitionTime += st.PartitionTime
	total.IndexedSubgraphs += st.IndexedSubgraphs
	total.SubgraphProbes += st.SubgraphProbes
	total.MatchTests += st.MatchTests
	total.MatchHits += st.MatchHits
	total.SmallTreeFallback += st.SmallTreeFallback
	total.IndexBuildTime += st.IndexBuildTime
	total.PostingsScanned += st.PostingsScanned
	total.SkippedByCount += st.SkippedByCount
	total.PairsRetracted += st.PairsRetracted
	total.DPAvoided += st.DPAvoided
	total.SeqRejects += st.SeqRejects
	total.KeyrootsSkipped += st.KeyrootsSkipped
	total.BandAborts += st.BandAborts
	total.StrategyLeft += st.StrategyLeft
	total.StrategyRight += st.StrategyRight
	switch {
	case st.Source == "":
	case total.Source == "":
		total.Source = st.Source
	case total.Source != st.Source:
		total.Source = "mixed"
	}
	for _, sg := range st.Stages {
		merged := false
		for i := range total.Stages {
			if total.Stages[i].Name == sg.Name {
				total.Stages[i].In += sg.In
				total.Stages[i].Pruned += sg.Pruned
				total.Stages[i].SampledNs += sg.SampledNs
				total.Stages[i].Sampled += sg.Sampled
				merged = true
				break
			}
		}
		if !merged {
			total.Stages = append(total.Stages, sg)
		}
	}
}

// SelfJoin reports every unordered pair of view trees within TED tau, in
// ascending global (I, J) order — bit-identical to a single Corpus over the
// same membership — together with the rolled-up Stats of every round. On
// cancellation it returns the pairs found so far, the partial rollup, and
// ctx's error.
func (v *ShardedView) SelfJoin(ctx context.Context, tau int, opts ...Option) ([]Pair, Stats, error) {
	c := buildConfig(opts)
	var pairs []Pair
	stats, err := v.streamSelf(ctx, tau, c, func(p Pair) bool {
		pairs = append(pairs, p)
		return true
	})
	if stats == nil {
		return nil, Stats{}, err
	}
	sim.SortPairs(pairs)
	c.publishStats(stats)
	return pairs, *stats, err
}

// SelfJoinSeq is the streaming SelfJoin: pairs arrive as rounds verify them,
// in no particular order; use WithStats for the rollup after the sequence
// ends. Validation happens eagerly, before the sequence is returned.
func (v *ShardedView) SelfJoinSeq(ctx context.Context, tau int, opts ...Option) (iter.Seq[Pair], error) {
	c := buildConfig(opts)
	if _, _, err := c.pipelineChecked(tau); err != nil {
		return nil, err
	}
	return func(yield func(Pair) bool) {
		stats, _ := v.streamSelf(ctx, tau, c, sim.EmitFunc(yield))
		c.publishStats(stats)
	}, nil
}

// Join reports every cross pair (a ∈ this view, b ∈ other) within tau;
// Pair.I is a global position of the view, Pair.J a position of other. The
// other corpus is pinned once (one snapshot serves every per-shard round),
// so the result is one consistent cross join even while other mutates.
func (v *ShardedView) Join(ctx context.Context, other *Corpus, tau int, opts ...Option) ([]Pair, Stats, error) {
	c := buildConfig(opts)
	if other == nil {
		return nil, Stats{}, ErrNilCorpus
	}
	if _, _, err := c.pipelineChecked(tau); err != nil {
		return nil, Stats{}, err
	}
	st := v.st
	oview := other.Snapshot()
	if st.lt != nil && oview.state.Load().lt != nil && st.lt != oview.state.Load().lt {
		return nil, Stats{}, fmt.Errorf("%w (cross join)", ErrLabelTable)
	}
	c.statsDst = nil
	cLocal := c
	rollup := &sim.Stats{Trees: len(st.trees) + oview.Len()}
	var pairs []Pair
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	pool := sim.NormalizeWorkers(cLocal.workers)
	active := 0
	for s := range st.views {
		if st.views[s].Len() > 0 {
			active++
		}
	}
	if active > 0 {
		if pool > active {
			cLocal.workers = pool / active
		} else {
			cLocal.workers = 1
		}
	}
	for s := range st.views {
		if st.views[s].Len() == 0 {
			continue
		}
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			tg := st.toGlobal[s]
			stats, err := st.views[s].streamJoinWith(ctx, oview, tau, cLocal, func(p Pair) bool {
				mu.Lock()
				pairs = append(pairs, Pair{I: tg[p.I], J: p.J, Dist: p.Dist})
				mu.Unlock()
				return true
			})
			mu.Lock()
			foldStats(rollup, stats)
			if err != nil && firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	sim.SortPairs(pairs)
	buildConfig(opts).publishStats(rollup)
	return pairs, *rollup, firstErr
}

// Search reports every view tree within TED tau of q, ascending global
// position order — identical to a single Corpus's Search. Shards are probed
// concurrently, each through its own per-threshold index.
func (v *ShardedView) Search(ctx context.Context, q *Tree, tau int, opts ...Option) ([]Match, error) {
	st := v.st
	if q != nil && st.lt != nil && q.Labels != st.lt {
		return nil, fmt.Errorf("%w (query)", ErrLabelTable)
	}
	type result struct {
		ms  []Match
		err error
	}
	results := make([]result, len(st.views))
	var wg sync.WaitGroup
	for s := range st.views {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			ms, err := st.views[s].Search(ctx, q, tau, opts...)
			for i := range ms {
				ms[i].Pos = st.toGlobal[s][ms[i].Pos]
			}
			results[s] = result{ms, err}
		}()
	}
	wg.Wait()
	var out []Match
	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		out = append(out, r.ms...)
	}
	core.SortMatches(out)
	return out, nil
}

// TopK returns the k closest pairs of the view by TED, ordered by
// (Dist, I, J) — identical to a single Corpus's TopK. It mirrors the
// expanding-threshold search: sharded self joins at geometrically growing τ
// until k pairs are in reach.
func (v *ShardedView) TopK(ctx context.Context, k int, opts ...Option) ([]Pair, error) {
	c := buildConfig(opts)
	if err := c.requirePartSJ("TopK", true); err != nil {
		return nil, err
	}
	st := v.st
	if k <= 0 || len(st.trees) < 2 {
		return nil, ctx.Err()
	}
	if all := len(st.trees) * (len(st.trees) - 1) / 2; k > all {
		k = all
	}
	var max1, max2 int
	for _, t := range st.trees {
		switch s := t.Size(); {
		case s > max1:
			max1, max2 = s, max1
		case s > max2:
			max2 = s
		}
	}
	return sim.ExpandTau(1, max1+max2, k, sim.ComparePairsByDist, func(tau int) ([]Pair, error) {
		var pairs []Pair
		_, err := v.streamSelf(ctx, tau, c, func(p Pair) bool {
			pairs = append(pairs, p)
			return true
		})
		return pairs, err
	})
}

// KNN returns the k view trees closest to q by TED, ordered by (Dist, Pos)
// with global positions — identical to a single Corpus's KNN. The expanding
// search runs globally: every shard answers a Search at the same growing τ,
// and the loop stops as soon as k matches exist across the union. Keeping the
// τ progression global matters: a per-shard k-nearest fan-out would force
// shards that hold no close neighbour of q to expand all the way to the size
// cap, paying an index build per threshold for matches the merge then
// discards.
func (v *ShardedView) KNN(ctx context.Context, q *Tree, k int, opts ...Option) ([]Match, error) {
	c := buildConfig(opts)
	if q == nil {
		return nil, fmt.Errorf("%w (query)", ErrNilTree)
	}
	st := v.st
	if st.lt != nil && q.Labels != st.lt {
		return nil, fmt.Errorf("%w (query)", ErrLabelTable)
	}
	if err := c.requirePartSJ("KNN", false); err != nil {
		return nil, err
	}
	if k <= 0 || len(st.trees) == 0 {
		return nil, ctx.Err()
	}
	if k > len(st.trees) {
		k = len(st.trees)
	}
	max1 := 0
	for _, t := range st.trees {
		if s := t.Size(); s > max1 {
			max1 = s
		}
	}
	return sim.ExpandTau(1, max1+q.Size(), k, core.CompareMatchesByDist, func(tau int) ([]Match, error) {
		// Check before each round: the per-shard index builds are
		// uncancellable, so don't start a round the caller no longer wants.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return v.Search(ctx, q, tau, opts...)
	})
}

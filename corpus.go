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
	"treejoin/internal/engine"
	"treejoin/internal/engine/plan"
	"treejoin/internal/segstore"
	"treejoin/internal/sim"
	"treejoin/internal/tree"
)

// Errors returned by the Corpus API. The legacy free functions panic on the
// same conditions; the Corpus surfaces them as wrapped sentinels so callers
// can test with errors.Is.
var (
	// ErrNilTree reports a nil *Tree in a corpus or as a query.
	ErrNilTree = errors.New("treejoin: nil tree")
	// ErrLabelTable reports trees that do not share one LabelTable — within
	// a corpus, across the two sides of a cross join, or between a query and
	// the corpus it searches.
	ErrLabelTable = errors.New("treejoin: trees do not share one LabelTable")
	// ErrNegativeThreshold reports a TED threshold τ < 0.
	ErrNegativeThreshold = errors.New("treejoin: negative threshold")
	// ErrUnknownMethod reports a Method value that names no join algorithm.
	ErrUnknownMethod = errors.New("treejoin: unknown method")
	// ErrUnknownPrefilter reports a Prefilter value that names no stage.
	ErrUnknownPrefilter = errors.New("treejoin: unknown prefilter")
	// ErrNilCorpus reports a nil *Corpus argument.
	ErrNilCorpus = errors.New("treejoin: nil corpus")
	// ErrOptionConflict reports an option combination the operation cannot
	// honor (e.g. WithMethod(MethodSTR) on a Search, which always runs on
	// the PartSJ index).
	ErrOptionConflict = errors.New("treejoin: conflicting options")
	// ErrImmutableSnapshot reports Add or Remove on a corpus view obtained
	// from Snapshot, which is frozen at its epoch by design.
	ErrImmutableSnapshot = errors.New("treejoin: corpus snapshot is immutable")
)

// CacheStats reports the effectiveness of a corpus's signature cache: Hits
// and Misses count per-tree artifact lookups, Entries the artifacts
// currently retained. A warm corpus re-joined at a new threshold shows
// Misses frozen — zero per-tree signature recomputation.
type CacheStats = engine.CacheStats

// corpusState is one immutable epoch of a corpus: the live trees in
// insertion order and their stable public ids. Mutations build a new state
// and swap the pointer — copy-on-write — so a query that loaded a state keeps
// a perfectly consistent view for its whole run while writers proceed.
type corpusState struct {
	epoch  int64
	ts     []*Tree
	ids    []int // public id of the tree at each position; ascending, so PosOf bisects
	nextID int
	lt     *LabelTable
}

// posOf returns the position of the tree with the given id. Ids are assigned
// in increasing order and removals keep the order, so ids ascend with
// position in every state.
func (st *corpusState) posOf(id int) (int, bool) { return slices.BinarySearch(st.ids, id) }

// Corpus is the primary entry point for joining and querying a collection
// of trees: construct it once, query it many times, and — since the corpus
// is fully dynamic — mutate it in place with Add and Remove as documents
// arrive, change, and disappear. All trees must share one LabelTable
// (validated — NewCorpus and Add return errors instead of producing
// silently wrong joins).
//
// The corpus owns a signature cache: every per-tree artifact any query
// computes — traversal strings, histograms, Euler strings and gram bags,
// binary views, δ-partitions, and the verifier's arena views (postorder
// labels, leftmost-leaf indices, keyroots of both decompositions) — is
// cached by (artifact, tree) and reused by every later query, whatever its
// threshold or method. A second SelfJoin at a different τ recomputes no
// per-tree signature and rebuilds no view; only the τ-dependent pair
// predicates and candidate enumeration run again. Search
// and KNN queries additionally share a small LRU of per-threshold PartSJ
// indexes (see WithIndexCacheCap), and PartSJ joins probe those same indexes
// — one is built at most once per epoch, threshold and position mode, whoever
// asks first. The signature methods' self joins share frozen token indexes
// the same way, one per epoch, tokenizer, threshold and prefix multiplier
// (STR, EUL and PQG tokenise alike and share one; so do SET and HIST), built
// by the first join that needs it. Removing trees evicts their artifacts,
// so the cache's memory tracks the live collection; beyond that it never
// evicts — its size is bounded by the filter kinds and PartSJ thresholds
// actually queried (see DESIGN.md, "The corpus artifact cache"). A corpus
// opened from a store (Open) starts with the same empty cache a NewCorpus
// does: the store holds the trees and their ids, nothing derived.
//
// Mutations are epoch-versioned with copy-on-write snapshots: Add and
// Remove build a new immutable state and swap it in, so every query — and
// every in-flight SelfJoinSeq or Search iterator — runs against the exact
// membership it started with, while writers proceed concurrently. Queries
// index trees by dense position (0..Len()-1 in insertion order, exactly as
// a freshly built corpus over the same trees would); positions shift when
// earlier trees are removed, so mutations address trees by the stable ids
// Add returns (ID and PosOf translate). Snapshot pins the current epoch as
// a frozen corpus view. A mutation drops the epoch's indexes and nothing
// else: the write path maintains no index, and the first join or search of
// the new epoch rebuilds the one it needs from the cached per-tree artifacts
// (see DESIGN.md, "Dynamic corpora").
//
// Every query takes a context.Context: cancellation or deadline expiry
// aborts the engine's candidate loops, worker pools, and verification stage
// promptly, returning ctx's error together with whatever partial results and
// statistics had accumulated. The Seq variants stream results as the
// pipeline verifies them, in no particular order, with constant result
// memory — ranging over a handful of pairs and breaking early cancels the
// rest of the join.
//
// A Corpus is safe for concurrent use, including concurrent readers with
// writers; Add/Remove serialise against each other.
type Corpus struct {
	state    atomic.Pointer[corpusState]
	cache    *engine.Cache
	indexCap int
	frozen   bool    // a Snapshot view: mutations are rejected
	parent   *Corpus // the live corpus behind a Snapshot view; nil otherwise

	// overflow catches artifacts of trees no longer live in the corpus: a
	// query pinned to a pre-Remove state (a Snapshot, an in-flight
	// iterator) that recomputes a dead tree's signature stores it here, not
	// in the shared cache — so Remove's eviction is never undone and the
	// shared cache's memory genuinely tracks the live collection. Set only
	// on Snapshot views (it dies with the view); a live corpus uses a
	// per-run overflow instead (see runCache), so racing writes never
	// accumulate.
	overflow *engine.Cache

	writeMu sync.Mutex // serialises mutations

	// members counts, per tree object, the positions it occupies in the
	// current state (the corpus permits aliases): what runCache routes
	// artifacts by. It belongs to the live corpus — Snapshot views ask their
	// parent's — and is updated in place (writers also hold writeMu), so a
	// mutation touches only its own trees.
	memberMu sync.RWMutex
	members  map[*Tree]int

	// store backs a persistent corpus (see Open): mutations write through to
	// it — WAL first, then the published state — so an acknowledged Add or
	// Remove survives a crash. Nil for in-memory corpora.
	store      *segstore.Store
	persistent bool

	// planner is the corpus's learned cost model behind WithAutoPlan (the
	// default): per-stage selectivity and cost observed from completed runs,
	// decayed per mutation epoch. Shared with Snapshot views — a snapshot's
	// runs teach the same model, down-weighted by the epochs they lag. See
	// internal/engine/plan and autoplan.go.
	planner *plan.Model

	// searchers holds, per position mode, the epoch's frozen PartSJ indexes
	// by threshold: what Search and KNN probe, and what every PartSJ join over
	// this membership — SelfJoin, either side of a Join, a TopK round, a shard
	// round — resolves instead of building its own (see indexResolver). tokens
	// holds the epoch's frozen token indexes, which the signature methods'
	// self joins resolve (see tokenResolver). Both rotate together.
	mu            sync.Mutex
	searchers     map[core.PositionFilter]*core.KNN
	tokens        *engine.IndexLRU[tokenIndexKey, *engine.PrefixIndex]
	searcherEpoch int64
}

// tokenIndexKey names one of an epoch's token indexes: the tokenisation, the
// threshold, and the prefix multiplier C′ it was built with.
type tokenIndexKey struct {
	tokenizer    string
	tau, prefixC int
}

// indexCapacity is the bound on each of the corpus's per-epoch index caches.
func (cp *Corpus) indexCapacity() int {
	if cp.indexCap < 1 {
		return core.DefaultIndexCacheCap
	}
	return cp.indexCap
}

// runCache returns the cache a query on cp should read and write through: a
// router sending each tree's artifacts to the shared cache while the tree is
// live in the (parent) corpus's current state, and to an overflow once it is
// not. A Snapshot view routes to its per-view overflow (queries on the view
// stay warm together; it dies with the view); a live corpus only hits the
// overflow when a query races a Remove, so it gets a per-run one that dies
// with the query — overflow memory never outlives whoever needed it.
func (cp *Corpus) runCache() *engine.Cache {
	live, over := cp, cp.overflow
	if cp.parent != nil {
		live = cp.parent
	}
	if over == nil {
		over = engine.NewCache()
	}
	return engine.RoutedCache(func(t *tree.Tree) *engine.Cache {
		if live.isMember(t) {
			return live.cache
		}
		return over
	})
}

// NewCorpus validates ts (no nil trees, one shared LabelTable) and returns a
// corpus over it. The slice is copied; the trees are shared, which is safe —
// trees are immutable. Corpus-level options are applied here (currently
// WithIndexCacheCap); per-query options go to the individual calls.
func NewCorpus(ts []*Tree, opts ...Option) (*Corpus, error) {
	c := buildConfig(opts)
	st := &corpusState{
		ts:     slices.Clone(ts),
		ids:    make([]int, len(ts)),
		nextID: len(ts),
	}
	cp := &Corpus{
		cache:    engine.NewCache(),
		indexCap: c.indexCap,
		planner:  plan.New(),
	}
	for i, t := range st.ts {
		if t == nil {
			return nil, fmt.Errorf("%w at index %d", ErrNilTree, i)
		}
		if st.lt == nil {
			st.lt = t.Labels
		} else if t.Labels != st.lt {
			return nil, fmt.Errorf("%w (tree %d)", ErrLabelTable, i)
		}
		st.ids[i] = i
	}
	cp.addMembers(st.ts)
	cp.state.Store(st)
	cp.resetIndexes(st.epoch)
	return cp, nil
}

// Len returns the number of live trees in the corpus. Each call reads the
// current state, so a Len-then-Tree loop racing a concurrent Remove can see
// positions disappear between calls — iterate over Trees() or a Snapshot()
// when writers may be active.
func (cp *Corpus) Len() int { return len(cp.state.Load().ts) }

// Tree returns the tree at position i (0 ≤ i < Len(), insertion order over
// the live trees) of the current state; see Len for the concurrent-mutation
// caveat.
func (cp *Corpus) Tree(i int) *Tree { return cp.state.Load().ts[i] }

// Trees returns a copy of the live trees in position order, read from one
// state — the race-free way to enumerate a corpus that concurrent writers
// may be mutating (each query method pins its state the same way).
func (cp *Corpus) Trees() []*Tree { return slices.Clone(cp.state.Load().ts) }

// ID returns the stable id of the tree at position i of the current state
// (see Len for the concurrent-mutation caveat). Ids are assigned by
// NewCorpus (0..n-1) and Add (continuing the sequence) and never reused;
// they survive removals of other trees, which shift positions but not ids.
func (cp *Corpus) ID(i int) int { return cp.state.Load().ids[i] }

// PosOf returns the current position of the tree with the given id, or
// false when the id was never assigned or its tree has been removed.
func (cp *Corpus) PosOf(id int) (int, bool) { return cp.state.Load().posOf(id) }

// isMember reports whether t occupies a position of the current state.
func (cp *Corpus) isMember(t *Tree) bool {
	cp.memberMu.RLock()
	defer cp.memberMu.RUnlock()
	return cp.members[t] > 0
}

// addMembers records one more position for each of ts; dropMember removes
// one of t's and reports whether t is still live at another.
func (cp *Corpus) addMembers(ts []*Tree) {
	cp.memberMu.Lock()
	defer cp.memberMu.Unlock()
	if cp.members == nil {
		cp.members = make(map[*Tree]int, len(ts))
	}
	for _, t := range ts {
		cp.members[t]++
	}
}

func (cp *Corpus) dropMember(t *Tree) (alive bool) {
	cp.memberMu.Lock()
	defer cp.memberMu.Unlock()
	if cp.members[t] > 1 {
		cp.members[t]--
		return true
	}
	delete(cp.members, t)
	return false
}

// Epoch returns the corpus's mutation epoch: 0 at construction, bumped by
// every Add and Remove batch. Two reads at the same epoch observed the same
// membership.
func (cp *Corpus) Epoch() int64 { return cp.state.Load().epoch }

// CacheStats returns a snapshot of the corpus's signature-cache counters.
func (cp *Corpus) CacheStats() CacheStats { return cp.cache.Stats() }

// Snapshot returns a frozen view of the corpus at its current epoch: a
// corpus whose queries all run against this exact membership, unaffected by
// later Add/Remove on the parent (which proceed without blocking). The view
// shares the parent's signature cache, so its queries stay warm; artifacts
// of trees the parent has since removed land in a view-local overflow that
// is garbage-collected with the view, so a snapshot can never undo the
// parent's evictions. Add and Remove on the view return ErrImmutableSnapshot
// (respectively 0).
func (cp *Corpus) Snapshot() *Corpus {
	parent := cp
	if cp.parent != nil {
		parent = cp.parent
	}
	s := &Corpus{
		cache:    cp.cache,
		overflow: engine.NewCache(),
		indexCap: cp.indexCap,
		frozen:   true,
		parent:   parent,
		planner:  cp.planner,
	}
	st := cp.state.Load()
	s.state.Store(st)
	s.resetIndexes(st.epoch)
	return s
}

// Add appends ts to the corpus (they become the highest positions, in
// order) and returns their stable ids. Validation matches NewCorpus: no nil
// trees, one shared LabelTable (an empty corpus adopts the first added
// tree's table). The mutation is atomic — queries see either none or all of
// the batch — and leaves the cached signatures of existing trees untouched;
// the epoch's indexes are dropped, to be rebuilt from those signatures by the
// first query that needs one. In-flight queries continue on their pre-Add
// snapshot.
func (cp *Corpus) Add(ts ...*Tree) ([]int, error) {
	if cp.frozen {
		return nil, ErrImmutableSnapshot
	}
	if len(ts) == 0 {
		return nil, nil
	}
	cp.writeMu.Lock()
	defer cp.writeMu.Unlock()
	st := cp.state.Load()
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
	ids := make([]int, len(ts))
	for i := range ts {
		ids[i] = st.nextID + i
	}
	// Write-through for a persistent corpus: the batch reaches the store's
	// WAL — one write, one fsync — before the new state publishes, so an
	// acknowledged Add survives a crash. The batch is all or nothing: on
	// error nothing is durable, nothing publishes, and the same ids are
	// assigned again by the next Add.
	if cp.store != nil {
		if err := cp.store.Add(int64(st.nextID), ts...); err != nil {
			return nil, fmt.Errorf("treejoin: persist add: %w", err)
		}
	}
	ns := &corpusState{
		epoch:  st.epoch + 1,
		ts:     slices.Concat(st.ts, ts),
		ids:    slices.Concat(st.ids, ids),
		nextID: st.nextID + len(ts),
		lt:     lt,
	}
	cp.addMembers(ts)
	// Keep the arena views live: once a join has paid to flatten the
	// collection (the kind is populated), each Add flattens just its batch,
	// so the next join's verifier finds every tree warm instead of rebuilding
	// views for the whole membership. A corpus that never joined — a freshly
	// opened store, the backing corpus of a ShardedCorpus, one that only ever
	// used custom verifiers — skips this: the artifact would be pure
	// speculation. Removal needs no counterpart: Remove's Evict drops every
	// kind, arenas included.
	if cp.cache.KindEntries(engine.ArenaKey) > 0 {
		engine.ArenaFor(cp.cache, ts, 1)
	}
	cp.state.Store(ns)
	cp.dropSearchers(ns.epoch)
	return ids, nil
}

// dropSearchers eagerly releases the indexes built over the previous
// membership when a mutation lands at epoch. The next query would rotate them
// lazily anyway (see serves); dropping them here means a mutation that is
// never followed by a query does not keep full indexes (and the removed trees
// they reference) resident.
func (cp *Corpus) dropSearchers(epoch int64) {
	cp.mu.Lock()
	cp.resetIndexes(epoch)
	cp.mu.Unlock()
}

// resetIndexes empties the per-epoch index caches and pins them to epoch; the
// caller holds cp.mu (or is still constructing cp).
func (cp *Corpus) resetIndexes(epoch int64) {
	cp.searchers = make(map[core.PositionFilter]*core.KNN)
	cp.tokens = engine.NewIndexLRU[tokenIndexKey, *engine.PrefixIndex](cp.indexCapacity())
	cp.searcherEpoch = epoch
}

// serves reports whether the per-epoch index caches are st's to use, with
// cp.mu held. The caches are pinned to one epoch: the first query after a
// mutation rotates them, dropping every index built over the old membership
// (the eviction-on-epoch contract — a stale index can never serve a
// post-Remove query). A query still running against an older state is refused,
// so it builds a one-off instead of polluting the cache.
func (cp *Corpus) serves(st *corpusState) bool {
	if cp.searcherEpoch != st.epoch {
		if cp.state.Load().epoch != st.epoch {
			return false
		}
		cp.resetIndexes(st.epoch)
	}
	return true
}

// Remove deletes the trees with the given ids from the corpus and returns
// how many were removed (unknown or already-removed ids are skipped).
// Later trees shift down to keep positions dense, so after the call the
// corpus is indistinguishable — query for query, pair for pair — from a
// corpus freshly built over the survivors; ids are stable throughout. The
// removed trees' cached signatures and arena views are evicted and the
// epoch's indexes (PartSJ and token) are dropped, so no stale index can serve
// a post-Remove query.
// In-flight queries continue on their pre-Remove snapshot.
func (cp *Corpus) Remove(ids ...int) int {
	if cp.frozen || len(ids) == 0 {
		return 0
	}
	cp.writeMu.Lock()
	defer cp.writeMu.Unlock()
	st := cp.state.Load()
	positions := make([]int, 0, len(ids))
	for _, id := range ids {
		if p, ok := st.posOf(id); ok {
			positions = append(positions, p)
		}
	}
	slices.Sort(positions)
	positions = slices.Compact(positions)
	if len(positions) == 0 {
		return 0
	}
	// Write-through for a persistent corpus (see Add). Remove cannot return
	// an error, so a store failure aborts the whole mutation: nothing is
	// unpublished from the in-memory state and the call reports 0.
	if cp.store != nil {
		gone := make([]int64, len(positions))
		for i, p := range positions {
			gone[i] = int64(st.ids[p])
		}
		if err := cp.store.Remove(gone...); err != nil {
			return 0
		}
	}
	ns := &corpusState{
		epoch:  st.epoch + 1,
		ts:     make([]*Tree, 0, len(st.ts)-len(positions)),
		ids:    make([]int, 0, len(st.ts)-len(positions)),
		nextID: st.nextID,
		lt:     st.lt,
	}
	// Evict the removed trees' artifacts — unless the same tree object is
	// still live at another position (the corpus permits aliases), in which
	// case its artifacts stay warm for the survivor.
	var evict []*tree.Tree
	from := 0
	for _, p := range positions {
		ns.ts, ns.ids = append(ns.ts, st.ts[from:p]...), append(ns.ids, st.ids[from:p]...)
		if !cp.dropMember(st.ts[p]) {
			evict = append(evict, st.ts[p])
		}
		from = p + 1
	}
	ns.ts, ns.ids = append(ns.ts, st.ts[from:]...), append(ns.ids, st.ids[from:]...)
	// Evict only now that the dead trees have left members: runCache already
	// routes them to overflow caches, so the window in which a racing reader
	// can re-store an evicted artifact into the shared cache shrinks to
	// stores whose route was resolved before that — a handful of in-flight
	// artifacts at worst, not the steady leak the reverse order would allow.
	cp.state.Store(ns)
	cp.cache.Evict(evict...)
	cp.dropSearchers(ns.epoch)
	return len(positions)
}

// tokenResolver is the token-index source's hook for a self join over st: the
// epoch's frozen index for (tokenizer, τ, C′), built from the cached bags by
// whichever join asks first — never by NewCorpus, Add or Remove — and shared
// by every later one (STR, EUL and PQG tokenise alike, so they share). A view
// pinned to a superseded epoch gets nil and builds a private one.
func (cp *Corpus) tokenResolver(st *corpusState) engine.TokenIndexResolver {
	return func(ctx context.Context, tz engine.Tokenizer, tau, prefixC int) (*engine.PrefixIndex, bool) {
		cp.mu.Lock()
		ok := cp.serves(st)
		lru := cp.tokens // read after serves, which may have rotated it
		cp.mu.Unlock()
		if !ok {
			return nil, false
		}
		x, built, _ := lru.Get(ctx, tokenIndexKey{tz.Name(), tau, prefixC}, func() *engine.PrefixIndex {
			return engine.NewPrefixIndex(tz, st.ts, tau, prefixC, cp.runCache())
		})
		return x, built
	}
}

// SelfJoin reports every unordered pair of corpus trees whose tree edit
// distance is at most tau, in ascending (I, J) order, with execution
// statistics. Per-tree signatures come from the corpus cache — a repeat join
// at any threshold recomputes none of them. On cancellation it returns the
// pairs found so far (still sorted), the partial statistics, and ctx's
// error.
func (cp *Corpus) SelfJoin(ctx context.Context, tau int, opts ...Option) ([]Pair, Stats, error) {
	c := buildConfig(opts)
	var pairs []Pair
	stats, err := cp.streamSelfWith(ctx, tau, c, func(p Pair) bool {
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

// streamSelfWith is the configured core of SelfJoin: it pins the corpus
// state, plans, and streams every verified pair to sink. It returns a nil
// Stats exactly when validation rejected the query before anything ran.
// Besides SelfJoin it is the per-shard round the sharded fan-out runs — the
// sharded layer passes a config with statsDst stripped, so concurrent rounds
// never race on a caller's WithStats destination, and rolls the returned
// per-round Stats up itself.
func (cp *Corpus) streamSelfWith(ctx context.Context, tau int, c config, sink sim.EmitFunc) (*sim.Stats, error) {
	st := cp.state.Load()
	c.indexes, c.tokens = cp.indexResolver(st, c, nil, nil), cp.tokenResolver(st)
	job, tz, err := c.pipelineChecked(tau)
	if err != nil {
		return nil, err
	}
	job.Cache = cp.runCache()
	job, _ = cp.planJob(ctx, c, job, tz, st.ts, -1, st.epoch)
	stats, err := job.StreamSelf(ctx, st.ts, sink)
	if err == nil {
		cp.observeRun(stats, st.ts, -1, tau, st.epoch)
	}
	return stats, err
}

// SelfJoinSeq is the streaming SelfJoin: it returns a sequence that runs the
// join when ranged over, yielding each verified pair as the pipeline
// produces it — constant result memory, no ordering guarantee (sort the
// collected pairs, or use SelfJoin, for the canonical order). Breaking out
// of the range stops the join; ranging again re-runs it (cheaply, against
// the warm cache). Use WithStats to receive the run's statistics after the
// sequence ends. Option and threshold validation happens eagerly, before the
// sequence is returned; cancellation simply ends the sequence early — check
// ctx.Err() afterwards to distinguish completion from abort. The sequence is
// pinned to the corpus state at this call: later Add/Remove do not disturb a
// running (or re-run) iteration.
func (cp *Corpus) SelfJoinSeq(ctx context.Context, tau int, opts ...Option) (iter.Seq[Pair], error) {
	c := buildConfig(opts)
	st := cp.state.Load()
	c.indexes, c.tokens = cp.indexResolver(st, c, nil, nil), cp.tokenResolver(st)
	job, tz, err := c.pipelineChecked(tau)
	if err != nil {
		return nil, err
	}
	job.Cache = cp.runCache()
	job, _ = cp.planJob(ctx, c, job, tz, st.ts, -1, st.epoch)
	return func(yield func(Pair) bool) {
		stats, err := job.StreamSelf(ctx, st.ts, sim.EmitFunc(yield))
		if err == nil {
			cp.observeRun(stats, st.ts, -1, tau, st.epoch)
		}
		c.publishStats(stats)
	}, nil
}

// Join reports every cross pair (a ∈ this corpus, b ∈ other) within
// distance tau; Pair.I indexes into the receiver and Pair.J into other. The
// corpora must share one LabelTable (validated). Signatures for both sides
// are drawn from — and cached in — the receiver's cache, so repeated joins
// against the same partner warm up too.
func (cp *Corpus) Join(ctx context.Context, other *Corpus, tau int, opts ...Option) ([]Pair, Stats, error) {
	c := buildConfig(opts)
	var pairs []Pair
	st, err := cp.streamJoinWith(ctx, other, tau, c, func(p Pair) bool {
		pairs = append(pairs, p)
		return true
	})
	if st == nil {
		return nil, Stats{}, err
	}
	sim.SortPairs(pairs)
	c.publishStats(st)
	return pairs, *st, err
}

// streamJoinWith is the configured core of Join, with streamSelfWith's
// contract (nil Stats iff validation failed); the sharded fan-out's
// cross-shard rounds run on it.
func (cp *Corpus) streamJoinWith(ctx context.Context, other *Corpus, tau int, c config, sink sim.EmitFunc) (*sim.Stats, error) {
	run, err := cp.crossJob(ctx, c, other, tau)
	if err != nil {
		return nil, err
	}
	st, err := run.job.StreamJoin(ctx, run.a, run.b, sink)
	if err == nil {
		cp.observeRun(st, run.comb, len(run.a), tau, run.epoch)
	}
	return st, err
}

// JoinSeq is the streaming Join, with SelfJoinSeq's contract.
func (cp *Corpus) JoinSeq(ctx context.Context, other *Corpus, tau int, opts ...Option) (iter.Seq[Pair], error) {
	c := buildConfig(opts)
	run, err := cp.crossJob(ctx, c, other, tau)
	if err != nil {
		return nil, err
	}
	return func(yield func(Pair) bool) {
		st, err := run.job.StreamJoin(ctx, run.a, run.b, sim.EmitFunc(yield))
		if err == nil {
			cp.observeRun(st, run.comb, len(run.a), tau, run.epoch)
		}
		c.publishStats(st)
	}, nil
}

// crossRun is one assembled (and planned) cross join: the job, both sides'
// pinned memberships, their concatenation for the planner's bookkeeping,
// and the receiver's epoch the plan was made at.
type crossRun struct {
	job   engine.Job
	a, b  []*Tree
	comb  []*Tree
	epoch int64
}

// crossJob validates a cross join against other, snapshots both corpora's
// states (the join runs against exactly these memberships even when either
// side mutates mid-run), assembles its job, and lets the receiver's cost
// model plan it (the model never calibrates on cross joins — it plans from
// whatever self-join observations it holds, or emits the fixed plan). The
// run's cache routes each tree's artifacts to the corpus that owns it, so
// both sides warm their own caches and neither retains (and pins) the
// other's trees; trees belonging to neither side — including trees either
// side has since removed — land in a run-local overflow that dies with the
// query. A PartSJ run likewise takes each side's subgraph index from the
// corpus that owns the side.
func (cp *Corpus) crossJob(ctx context.Context, c config, other *Corpus, tau int) (crossRun, error) {
	if other == nil {
		return crossRun{}, ErrNilCorpus
	}
	sa, sb := cp.state.Load(), other.state.Load()
	if sa.lt != nil && sb.lt != nil && sa.lt != sb.lt {
		return crossRun{}, fmt.Errorf("%w (cross join)", ErrLabelTable)
	}
	c.indexes = cp.indexResolver(sa, c, other, sb)
	job, tz, err := c.pipelineChecked(tau)
	if err != nil {
		return crossRun{}, err
	}
	ra, rb := cp.runCache(), other.runCache()
	inB := make(map[*Tree]struct{}, len(sb.ts))
	for _, t := range sb.ts {
		inB[t] = struct{}{}
	}
	job.Cache = engine.RoutedCache(func(t *tree.Tree) *engine.Cache {
		if _, ok := inB[t]; ok {
			return rb
		}
		return ra
	})
	comb := make([]*Tree, 0, len(sa.ts)+len(sb.ts))
	comb = append(append(comb, sa.ts...), sb.ts...)
	job, _ = cp.planJob(ctx, c, job, tz, comb, len(sa.ts), sa.epoch)
	return crossRun{job: job, a: sa.ts, b: sb.ts, comb: comb, epoch: sa.epoch}, nil
}

// Search reports every corpus tree within TED tau of q, in ascending corpus
// order. The per-threshold PartSJ index is built on first use and retained
// in the corpus's index LRU, so repeated searches at the same threshold pay
// only probing and verification; mutations invalidate the LRU, so a stale
// index can never serve a post-Remove query. Search always runs on the
// PartSJ index; WithMethod, WithPrefilter, and WithShards conflict with it.
func (cp *Corpus) Search(ctx context.Context, q *Tree, tau int, opts ...Option) ([]Match, error) {
	if tau < 0 {
		return nil, fmt.Errorf("%w %d", ErrNegativeThreshold, tau)
	}
	st := cp.state.Load()
	c, err := cp.queryConfig(st, q, "Search", opts)
	if err != nil {
		return nil, err
	}
	ix, _, err := cp.searcher(st, c).IndexAt(ctx, tau, c.workers)
	if err != nil {
		return nil, err
	}
	return ix.SearchCtx(ctx, q)
}

// TopK returns the k closest pairs of the corpus by TED, ordered by
// (Dist, I, J) — the threshold-free SelfJoin. It runs PartSJ at
// geometrically increasing thresholds until k pairs are in reach; fewer than
// k pairs come back only when the corpus has fewer than k pairs in total.
// All rounds draw on the corpus cache, and WithWorkers/WithShards
// parallelise them. On cancellation it returns the pairs the aborted round
// had found (best-effort, not necessarily the global top k) and ctx's
// error. TopK always runs PartSJ; WithMethod and WithPrefilter conflict
// with it.
func (cp *Corpus) TopK(ctx context.Context, k int, opts ...Option) ([]Pair, error) {
	c := buildConfig(opts)
	if err := c.requirePartSJ("TopK", true); err != nil {
		return nil, err
	}
	st := cp.state.Load()
	c.indexes = cp.indexResolver(st, c, nil, nil)
	return core.TopKCtx(ctx, st.ts, k, c.coreOptions(0), c.shards, cp.runCache())
}

// KNN returns the k corpus trees closest to q by TED, ordered by
// (Dist, Pos), with no threshold required. It searches per-threshold indexes
// at expanding thresholds, sharing Search's index LRU, so a query workload
// settles into reusing a handful of them. Fewer than k matches are returned
// only when the corpus holds fewer than k trees. KNN always runs on the
// PartSJ index; WithMethod, WithPrefilter, and WithShards conflict with
// it.
func (cp *Corpus) KNN(ctx context.Context, q *Tree, k int, opts ...Option) ([]Match, error) {
	st := cp.state.Load()
	c, err := cp.queryConfig(st, q, "KNN", opts)
	if err != nil {
		return nil, err
	}
	return cp.searcher(st, c).NearestCtx(ctx, q, k)
}

// Incremental returns an empty streaming join with threshold tau that shares
// the corpus's signature cache: trees the corpus has already joined (or that
// were added before) enter the stream without recomputing their binary view
// or partition. The stream itself starts empty — it does not contain the
// corpus trees — and evolves independently of later corpus mutations; its
// Pairs and Retracted views maintain a standing result set across the
// stream's own Add/Remove sequence.
func (cp *Corpus) Incremental(tau int, opts ...Option) (*Incremental, error) {
	if tau < 0 {
		return nil, fmt.Errorf("%w %d", ErrNegativeThreshold, tau)
	}
	c := buildConfig(opts)
	if err := c.requirePartSJ("Incremental", false); err != nil {
		return nil, err
	}
	return &Incremental{inner: core.NewIncrementalCached(c.coreOptions(tau), cp.runCache())}, nil
}

// queryConfig validates a query tree and the options of an index-backed
// query (Search, KNN).
func (cp *Corpus) queryConfig(st *corpusState, q *Tree, op string, opts []Option) (config, error) {
	c := buildConfig(opts)
	if q == nil {
		return c, fmt.Errorf("%w (query)", ErrNilTree)
	}
	if st.lt != nil && q.Labels != st.lt {
		return c, fmt.Errorf("%w (query)", ErrLabelTable)
	}
	if err := c.requirePartSJ(op, false); err != nil {
		return c, err
	}
	return c, nil
}

// requirePartSJ rejects options an index-backed or expanding-threshold
// operation cannot honor. allowShards permits WithShards where the
// underlying runs are shardable engine joins (TopK).
func (c config) requirePartSJ(op string, allowShards bool) error {
	if c.method != MethodPartSJ {
		return fmt.Errorf("%w: %s supports MethodPartSJ only", ErrOptionConflict, op)
	}
	if len(c.prefilters) > 0 {
		return fmt.Errorf("%w: %s does not take prefilters", ErrOptionConflict, op)
	}
	if !allowShards && c.shards > 1 {
		return fmt.Errorf("%w: %s does not shard", ErrOptionConflict, op)
	}
	if len(c.planSpecs) > 0 {
		return fmt.Errorf("%w: %s does not take a fixed plan spec", ErrOptionConflict, op)
	}
	return nil
}

// indexResolver is the core.Options.Indexes hook of a PartSJ join configured
// by c over st — and, for a cross join, over other's pinned sb as side 1: each
// side's frozen index comes out of the owning corpus's searcher, where Search,
// KNN and every other join at that epoch, threshold and position mode find
// the same instance. A side pinned to a superseded epoch gets a one-off.
func (cp *Corpus) indexResolver(st *corpusState, c config, other *Corpus, sb *corpusState) func(context.Context, int, int) (*core.Index, bool) {
	return func(ctx context.Context, side, tau int) (*core.Index, bool) {
		owner, pinned := cp, st
		if side == 1 {
			owner, pinned = other, sb
		}
		ix, built, _ := owner.searcher(pinned, c).IndexAt(ctx, tau, c.workers)
		return ix, built
	}
}

// searcher returns the index machinery for c's position mode over the
// st membership, creating it on first use — a one-off when the per-epoch
// caches serve another epoch (see serves).
func (cp *Corpus) searcher(st *corpusState, c config) *core.KNN {
	// Tau here only seeds KNN's expanding search, and the build's worker
	// count is chosen per call, so one searcher — and one index per
	// threshold — serves every caller at this position mode.
	o := core.Options{Tau: 1, Position: c.position}
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if !cp.serves(st) {
		return core.NewKNNCached(st.ts, o, cp.runCache(), cp.indexCapacity())
	}
	s := cp.searchers[c.position]
	if s == nil {
		s = core.NewKNNCached(st.ts, o, cp.runCache(), cp.indexCapacity())
		cp.searchers[c.position] = s
	}
	return s
}

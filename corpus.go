package treejoin

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"iter"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"treejoin/internal/core"
	"treejoin/internal/engine"
	"treejoin/internal/segstore"
	"treejoin/internal/sim"
	"treejoin/internal/tree"
)

// Errors returned by the Corpus API, as wrapped sentinels so callers can test
// with errors.Is.
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
// insertion order, their stable public ids, and the partition of that
// membership into parts. Mutations build a new state and swap the pointer —
// copy-on-write — so a query that loaded a state keeps a perfectly consistent
// view for its whole run while writers proceed.
type corpusState struct {
	epoch  int64
	ts     []*Tree
	ids    []int // public id of the tree at each position; ascending, so PosOf bisects
	nextID int
	lt     *LabelTable

	// parts partitions the membership by id (partOf). The one part of a
	// one-part state is ts and ids themselves.
	parts []*part

	// subgraph and tokens hold the frozen indexes over the whole membership
	// that every join probes, each built by whoever asks first and dying with
	// the epoch (a Snapshot shares them): per threshold the PartSJ index
	// composed from the parts' (indexAt), per (tokenizer, threshold) the
	// signature methods' token index.
	subgraph *engine.IndexLRU[int, *core.Index]
	tokens   *engine.IndexLRU[tokenIndexKey, *engine.PrefixIndex]
	ranks    *engine.IndexLRU[string, *engine.TokenRanking] // per tokenizer, what its indexes share

	// max1 ≥ max2 are the two largest tree sizes: no pair is farther apart
	// than their sum (delete one tree, insert the other), which caps the
	// expanding thresholds of TopK and KNN.
	max1, max2 int
}

// part is one cell of a state's partition: its trees and their ids, in
// ascending id (so in the order the state holds them), and per threshold the
// frozen PartSJ index over exactly those trees — what Search and KNN probe and
// a state's composed index is put together from, built by whoever asks
// first. A part is immutable: a mutation gives the parts it touches new ones
// and carries the others over by pointer. An index is
// therefore reachable only from the membership it covers — a query pinned to a
// pre-Remove state finds that state's indexes, a query on the new state can
// never find them, and an untouched part keeps its indexes across epochs.
type part struct {
	ts       []*Tree
	ids      []int
	subgraph *engine.IndexLRU[int, *core.Index]
}

// tokenIndexKey names one of a state's token indexes: the tokenisation and
// the threshold it was built for.
type tokenIndexKey struct {
	tokenizer string
	tau       int
}

func newPart(ts []*Tree, ids []int) *part {
	return &part{ts: ts, ids: ids, subgraph: engine.NewIndexLRU[int, *core.Index](core.DefaultIndexCacheCap)}
}

// indexAt returns the part's subgraph index for a threshold, building it on
// workers goroutines from the artifacts of owner's run cache on first use —
// made only then, so a warm probe allocates none; built reports that this call
// paid for the build.
func (p *part) indexAt(ctx context.Context, tau, workers int, owner *Corpus) (ix *core.Index, built bool, err error) {
	return p.subgraph.Get(ctx, tau, func() *core.Index {
		return core.NewIndexCached(p.ts, core.Options{Tau: tau, Workers: workers}, owner.runCache())
	})
}

// indexAt returns the state's subgraph index for a threshold: on first use,
// its parts' indexes — built where missing — composed into the one a one-part
// build over ts would be (a one-part state's is its part's own). built reports
// that this call paid for a build or a compose.
func (st *corpusState) indexAt(ctx context.Context, tau, workers int, owner *Corpus) (ix *core.Index, built bool, err error) {
	partBuilt := false
	ix, ran, err := st.subgraph.Get(ctx, tau, func() *core.Index {
		// Index builds are uncancellable: wait out a part another query is
		// building rather than compose around a hole.
		ctx := context.WithoutCancel(ctx)
		at := make([][]int32, len(st.parts))
		for g, id := range st.ids {
			at[st.partOf(id)] = append(at[st.partOf(id)], int32(g))
		}
		return core.Compose(st.ts, at, func(k int) *core.Index {
			x, built, _ := st.parts[k].indexAt(ctx, tau, workers, owner)
			partBuilt = partBuilt || built
			return x
		})
	})
	return ix, partBuilt || ran && len(st.parts) > 1, err
}

// tokenIndex returns the state's frozen token index for (tz, τ), built by
// whichever join asks first and shared by every later one (STR, EUL and PQG
// tokenise alike, so they share), over the tokenizer's one ranking of the
// state's bags, drawn through cache. built reports that this call paid for
// the build.
func (st *corpusState) tokenIndex(ctx context.Context, tz engine.Tokenizer, tau, workers int, cache *engine.Cache) (x *engine.PrefixIndex, built bool, err error) {
	return st.tokens.Get(ctx, tokenIndexKey{tz.Name(), tau}, func() *engine.PrefixIndex {
		rk, _, _ := st.ranks.Get(context.WithoutCancel(ctx), tz.Name(), func() *engine.TokenRanking {
			return engine.NewTokenRanking(tz, st.ts, workers, cache)
		})
		return engine.NewPrefixIndex(rk, tau)
	})
}

// posOf returns the position of the tree with the given id. Ids are assigned
// in increasing order and removals keep the order, so ids ascend with
// position in every state.
func (st *corpusState) posOf(id int) (int, bool) { return slices.BinarySearch(st.ids, id) }

// partOf returns the part the tree with the given id lives in.
func (st *corpusState) partOf(id int) int { return id % len(st.parts) }

// global translates position i of part p into a position of ts: by the id,
// as PosOf does — a part carried over from an earlier state knows nothing of
// how positions have shifted since. Search's hits need it; a join runs over
// ts itself.
func (st *corpusState) global(p *part, i int) int {
	if len(st.parts) == 1 {
		return i
	}
	pos, _ := st.posOf(p.ids[i])
	return pos
}

// foldSizes accounts for the sizes of ts in max1 and max2.
func (st *corpusState) foldSizes(ts []*Tree) {
	for _, t := range ts {
		switch s := t.Size(); {
		case s > st.max1:
			st.max1, st.max2 = s, st.max1
		case s > st.max2:
			st.max2 = s
		}
	}
}

// next builds the state that follows prev — the given membership, size caps
// aside — partitioned like prev: a part that loses one of the ids in gone
// (ascending) or gains one of the added trees is built afresh, with an empty
// index cache, from its survivors and then its newcomers; every other part is
// carried over. The whole-membership indexes start empty. ts and ids already
// reflect both changes.
func (prev *corpusState) next(ts []*Tree, ids []int, nextID int, lt *LabelTable, gone []int, added []*Tree, addedIDs []int) *corpusState {
	ns := &corpusState{
		epoch: prev.epoch + 1, ts: ts, ids: ids, nextID: nextID, lt: lt, parts: slices.Clone(prev.parts),
		subgraph: engine.NewIndexLRU[int, *core.Index](core.DefaultIndexCacheCap),
		tokens:   engine.NewIndexLRU[tokenIndexKey, *engine.PrefixIndex](core.DefaultIndexCacheCap),
		ranks:    engine.NewIndexLRU[string, *engine.TokenRanking](core.DefaultIndexCacheCap),
	}
	if len(ns.parts) == 1 {
		ns.parts[0] = newPart(ts, ids)
		return ns
	}
	touched, gains := make([]bool, len(ns.parts)), make([]int, len(ns.parts))
	for _, id := range gone {
		touched[ns.partOf(id)] = true
	}
	for _, id := range addedIDs {
		touched[ns.partOf(id)] = true
		gains[ns.partOf(id)]++
	}
	for p, old := range prev.parts {
		if !touched[p] {
			continue
		}
		pts, pids := make([]*Tree, 0, len(old.ts)+gains[p]), make([]int, 0, len(old.ts)+gains[p])
		from := 0
		for _, id := range gone {
			if i, ok := slices.BinarySearch(old.ids, id); ok {
				pts, pids = append(pts, old.ts[from:i]...), append(pids, old.ids[from:i]...)
				from = i + 1
			}
		}
		pts, pids = append(pts, old.ts[from:]...), append(pids, old.ids[from:]...)
		for i, id := range addedIDs {
			if ns.partOf(id) == p {
				pts, pids = append(pts, added[i]), append(pids, id)
			}
		}
		ns.parts[p] = newPart(pts, pids)
	}
	return ns
}

// Corpus is the primary entry point for joining and querying a collection
// of trees: construct it once, query it many times, and — since the corpus
// is fully dynamic — mutate it in place with Add and Remove as documents
// arrive, change, and disappear. All trees must share one LabelTable
// (validated — the constructors and Add return errors instead of producing
// silently wrong joins).
//
// The corpus owns a signature cache: every per-tree artifact any query
// computes — traversal strings, histograms, Euler strings and gram bags,
// binary views, δ-partitions, and the verifier's arena views (postorder
// labels, leftmost-leaf indices, keyroots of both decompositions) — is
// cached by (artifact, tree) and reused by every later query, whatever its
// threshold or method. A second SelfJoin at a different τ recomputes no
// per-tree signature and rebuilds no view; only the τ-dependent pair
// predicates and candidate enumeration run again. Removing trees evicts
// their artifacts, so the cache's memory tracks the live collection; beyond
// that it never evicts — its size is bounded by the filter kinds and PartSJ
// thresholds actually queried (see DESIGN.md, "The corpus artifact cache"). A
// corpus opened from a store (Open) starts with the same empty cache a
// NewCorpus does: the store holds the trees and their ids, nothing derived.
//
// The membership is partitioned into parts by id — one part for NewCorpus and
// Open, n for NewSharded and OpenSharded — and the partition is transparent:
// every query reports the positions, ids, pairs and join statistics a
// one-part corpus over the same trees would. A join is one run over the whole
// membership, probing one index per epoch: for PartSJ the parts' frozen
// subgraph indexes composed into exactly the index a one-part build holds, for
// the signature methods one token index per tokenizer and threshold (STR, EUL
// and PQG tokenise alike and share one; so do SET and HIST). Search probes
// every part's index, so a point query after a mutation rebuilds one part's
// index, never the whole membership's; TopK and KNN expand one global
// threshold over those two. Every index cache is a small LRU
// (see core.DefaultIndexCacheCap): a part's subgraph index is built at most
// once per threshold, whoever asks first — Search, KNN or the compose a join
// asks for — and each whole-membership index at most once per epoch.
//
// Mutations are epoch-versioned with copy-on-write snapshots: Add and
// Remove build a new immutable state and swap it in, so every query — and
// every in-flight SelfJoinSeq or Search iterator — runs against the exact
// membership it started with, while writers proceed concurrently. Queries
// index trees by dense position (0..Len()-1 in insertion order, exactly as
// a freshly built corpus over the same trees would); positions shift when
// earlier trees are removed, so mutations address trees by the stable ids
// Add returns (ID and PosOf translate). Snapshot pins the current epoch as
// a frozen corpus view. A mutation replaces the parts it touches, and with
// them their indexes, and nothing else: the write path maintains no index,
// an untouched part keeps its own, and the first join or search to reach a
// new part rebuilds the index it needs from the cached per-tree artifacts
// (see DESIGN.md, "Dynamic corpora and their parts").
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
	state  atomic.Pointer[corpusState]
	cache  *engine.Cache
	frozen bool    // a Snapshot view: mutations are rejected
	parent *Corpus // the live corpus behind a Snapshot view; nil otherwise

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
	store *segstore.Store
}

// live returns the corpus whose cache and member set cp's queries route by:
// cp itself, or the parent of a Snapshot view.
func (cp *Corpus) live() *Corpus {
	if cp.parent != nil {
		return cp.parent
	}
	return cp
}

// runCache returns the cache a query on cp should read and write through: a
// router sending each tree's artifacts to the shared cache while the tree is
// live in the (parent) corpus's current state, and to an overflow once it is
// not. A Snapshot view routes to its per-view overflow (queries on the view
// stay warm together; it dies with the view); a live corpus only hits the
// overflow when a query races a Remove, so it gets a per-run one that dies
// with the query — overflow memory never outlives whoever needed it.
func (cp *Corpus) runCache() *engine.Cache {
	live, over := cp.live(), cp.overflow
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

// checkTrees validates trees entering a corpus whose label table is lt (nil
// while it is empty, when the first tree's is adopted): no nil trees, one
// shared LabelTable. It returns the table the trees share.
func checkTrees(lt *LabelTable, what string, ts ...*Tree) (*LabelTable, error) {
	for i, t := range ts {
		if t == nil {
			return nil, fmt.Errorf("%w (%s %d)", ErrNilTree, what, i)
		}
		if lt == nil {
			lt = t.Labels
		} else if t.Labels != lt {
			return nil, fmt.Errorf("%w (%s %d)", ErrLabelTable, what, i)
		}
	}
	return lt, nil
}

// NewCorpus validates ts (no nil trees, one shared LabelTable) and returns a
// one-part corpus over it. The slice is copied; the trees are shared, which is
// safe — trees are immutable. Options go to the individual queries.
func NewCorpus(ts []*Tree) (*Corpus, error) { return NewSharded(1, ts) }

// newCorpus returns the live n-part corpus over an already validated
// membership, written through to store when that is non-nil.
func newCorpus(n int, ts []*Tree, ids []int, nextID int, lt *LabelTable, store *segstore.Store) *Corpus {
	cp := &Corpus{cache: engine.NewCache(), store: store}
	cp.addMembers(ts)
	empty := &corpusState{epoch: -1, parts: make([]*part, n)}
	for p := range empty.parts {
		empty.parts[p] = newPart(nil, nil)
	}
	st := empty.next(ts, ids, nextID, lt, nil, ts, ids)
	st.foldSizes(ts)
	cp.state.Store(st)
	return cp
}

// NumShards returns the number of parts the membership is partitioned into.
func (cp *Corpus) NumShards() int { return len(cp.state.Load().parts) }

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
// (see Len for the concurrent-mutation caveat). Ids are assigned by the
// constructor (0..n-1) and Add (continuing the sequence) and never reused;
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
// corpus whose queries all run against this exact membership — every part
// and the position maps at once — unaffected by later Add/Remove on the
// parent (which proceed without blocking). It costs one pointer load and one
// small struct, and needs no release: the per-request isolation seam
// cmd/treejoind uses. The view shares the parent's signature cache and its
// epoch's parts, so its queries find every index the parent's built (and the
// other way round); artifacts of trees the parent has since removed land in a
// view-local overflow that is garbage-collected with the view, so a snapshot
// can never undo the parent's evictions. Add and Remove on the view return
// ErrImmutableSnapshot (respectively 0).
func (cp *Corpus) Snapshot() *Corpus {
	s := &Corpus{
		cache:    cp.cache,
		overflow: engine.NewCache(),
		frozen:   true,
		parent:   cp.live(),
	}
	s.state.Store(cp.state.Load())
	return s
}

// Add appends ts to the corpus (they become the highest positions, in
// order) and returns their stable ids. Validation matches the constructors:
// no nil trees, one shared LabelTable (an empty corpus adopts the first added
// tree's table). The mutation is atomic — queries see either none or all of
// the batch — and leaves the cached signatures of existing trees untouched;
// the parts the batch lands in are replaced, their indexes to be rebuilt from
// those signatures by the first query that needs one, and every other part
// keeps its own. In-flight queries continue on their pre-Add snapshot.
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
	lt, err := checkTrees(st.lt, "added tree", ts...)
	if err != nil {
		return nil, err
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
	ns := st.next(slices.Concat(st.ts, ts), slices.Concat(st.ids, ids), st.nextID+len(ts), lt, nil, ts, ids)
	ns.max1, ns.max2 = st.max1, st.max2
	ns.foldSizes(ts)
	cp.addMembers(ts)
	// Keep the arena views live: once a join has paid to flatten the
	// collection (the kind is populated), each Add flattens just its batch,
	// so the next join's verifier finds every tree warm instead of rebuilding
	// views for the whole membership. A corpus that never joined — a freshly
	// opened store, one that only ever used custom verifiers — skips this: the
	// artifact would be pure speculation. Removal needs no counterpart:
	// Remove's Evict drops every kind, arenas included.
	if cp.cache.KindEntries(engine.ArenaKey) > 0 {
		engine.ArenaFor(cp.cache, ts, 1)
	}
	cp.state.Store(ns)
	return ids, nil
}

// Remove deletes the trees with the given ids from the corpus and returns
// how many were removed (unknown or already-removed ids are skipped).
// Later trees shift down to keep positions dense, so after the call the
// corpus is indistinguishable — query for query, pair for pair — from a
// corpus freshly built over the survivors; ids are stable throughout. The
// removed trees' cached signatures and arena views are evicted and the parts
// they lived in are replaced, indexes (PartSJ and token) and all, so no stale
// index can serve a post-Remove query.
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
	gone := make([]int, len(positions)) // ascending, as positions are
	for i, p := range positions {
		gone[i] = st.ids[p]
	}
	if cp.store != nil {
		gone64 := make([]int64, len(gone))
		for i, id := range gone {
			gone64[i] = int64(id)
		}
		if err := cp.store.Remove(gone64...); err != nil {
			return 0
		}
	}
	nts := make([]*Tree, 0, len(st.ts)-len(positions))
	nids := make([]int, 0, len(st.ts)-len(positions))
	// Evict the removed trees' artifacts — unless the same tree object is
	// still live at another position (the corpus permits aliases), in which
	// case its artifacts stay warm for the survivor.
	var evict []*tree.Tree
	from, capped := 0, false
	for _, p := range positions {
		nts, nids = append(nts, st.ts[from:p]...), append(nids, st.ids[from:p]...)
		capped = capped || st.ts[p].Size() >= st.max2
		if !cp.dropMember(st.ts[p]) {
			evict = append(evict, st.ts[p])
		}
		from = p + 1
	}
	nts, nids = append(nts, st.ts[from:]...), append(nids, st.ids[from:]...)
	ns := st.next(nts, nids, st.nextID, st.lt, gone, nil, nil)
	if ns.max1, ns.max2 = st.max1, st.max2; capped {
		ns.max1, ns.max2 = 0, 0
		ns.foldSizes(nts)
	}
	// Evict only now that the dead trees have left members: runCache already
	// routes them to overflow caches, so the window in which a racing reader
	// can re-store an evicted artifact into the shared cache shrinks to
	// stores whose route was resolved before that — a handful of in-flight
	// artifacts at worst, not the steady leak the reverse order would allow.
	cp.state.Store(ns)
	cp.cache.Evict(evict...)
	return len(positions)
}

// joinQuery is one validated and planned join over pinned memberships: the
// self join of a, or — with b set — the cross join of a against b. It runs
// its method's plan as one engine job, probing a's whole-membership index
// with a's trees or with b's.
type joinQuery struct {
	cp    *Corpus
	c     config
	a, b  *corpusState
	job   engine.Job
	tz    engine.Tokenizer // the method's token-index tokenizer; nil without one
	cache *engine.Cache
}

// selfQuery validates, pins to st and plans the self join of cp at tau.
func (cp *Corpus) selfQuery(st *corpusState, tau int, c config) (*joinQuery, error) {
	q := &joinQuery{cp: cp, c: c, a: st, cache: cp.runCache()}
	return q, q.plan(tau)
}

// crossQuery validates a cross join against other, pins both corpora's
// states (the join runs against exactly these memberships even when either
// side mutates mid-run) and plans it: the same method plan a self join runs,
// probing the receiver's per-epoch index with other's trees. The run's cache
// routes each tree's artifacts to the corpus it is live in, so both sides
// warm their own caches and neither retains (and pins) the other's trees;
// trees live in neither — including trees either side has since removed —
// land in an overflow that dies with the query.
func (cp *Corpus) crossQuery(other *Corpus, tau int, c config) (*joinQuery, error) {
	if other == nil {
		return nil, ErrNilCorpus
	}
	q := &joinQuery{cp: cp, c: c, a: cp.state.Load(), b: other.state.Load()}
	if q.a.lt != nil && q.b.lt != nil && q.a.lt != q.b.lt {
		return nil, fmt.Errorf("%w (cross join)", ErrLabelTable)
	}
	own, theirs, partner := cp.runCache(), other.runCache(), other.live()
	q.cache = engine.RoutedCache(func(t *tree.Tree) *engine.Cache {
		if partner.isMember(t) {
			return theirs
		}
		return own
	})
	return q, q.plan(tau)
}

// plan assembles the query's pipeline. Its source gets the index it probes
// only when the query runs (stream), so planning builds nothing.
func (q *joinQuery) plan(tau int) (err error) {
	q.job, q.tz, err = q.c.pipelineChecked(tau)
	q.job.Cache = q.cache
	return err
}

// stream runs the join, streaming each verified pair to sink. It first hands
// the source the index it probes: a's, for the method and threshold, where
// every other join at this epoch finds the same instance. A build this call
// paid for is charged to the run's Stats. A run whose context is already
// done, or that has nothing to probe, resolves nothing.
func (q *joinQuery) stream(ctx context.Context, sink sim.EmitFunc) (*sim.Stats, error) {
	job, tau, workers := q.job, q.job.Tau, q.c.workers
	var build time.Duration
	var err error
	if ctx.Err() == nil && len(q.a.ts) > 0 && (q.b == nil || len(q.b.ts) > 0) {
		start, built := time.Now(), false
		switch {
		case q.tz != nil:
			var x *engine.PrefixIndex
			x, built, err = q.a.tokenIndex(ctx, q.tz, tau, workers, q.cache)
			job.Source = engine.TokenIndex(q.tz, x)
		case q.c.method == MethodPartSJ:
			var x *core.Index
			x, built, err = q.a.indexAt(ctx, tau, workers, q.cp)
			job.Source = core.NewSource(x)
		}
		if built {
			build = time.Since(start)
		}
	}
	var stats *sim.Stats
	var runErr error
	if q.b == nil {
		stats, runErr = job.StreamSelf(ctx, q.a.ts, sink)
	} else {
		stats, runErr = job.StreamJoin(ctx, q.a.ts, q.b.ts, sink)
	}
	// The build is candidate generation's wall time, and a breakdown of the
	// token index's CandTime or of PartSJ's PartitionTime (Stats).
	stats.IndexBuildTime += build
	stats.CandWall += build
	if q.tz != nil {
		stats.CandTime += build
	} else {
		stats.PartitionTime += build
	}
	return stats, cmp.Or(err, runErr)
}

// collect runs the query to its end: the pairs in canonical order, or on
// cancellation the pairs found so far (still sorted), the partial statistics,
// and ctx's error.
func (q *joinQuery) collect(ctx context.Context) ([]Pair, Stats, error) {
	var pairs []Pair
	stats, err := q.stream(ctx, func(p Pair) bool {
		pairs = append(pairs, p)
		return true
	})
	sim.SortPairs(pairs)
	q.c.publishStats(stats)
	return pairs, *stats, err
}

// seq returns the query as a sequence that runs it when ranged over.
func (q *joinQuery) seq(ctx context.Context) iter.Seq[Pair] {
	return func(yield func(Pair) bool) {
		stats, _ := q.stream(ctx, sim.EmitFunc(yield))
		q.c.publishStats(stats)
	}
}

// SelfJoin reports every unordered pair of corpus trees whose tree edit
// distance is at most tau, in ascending (I, J) order, with execution
// statistics — the same whatever the corpus's part count. Per-tree signatures
// come from the corpus cache — a repeat join at any threshold recomputes none
// of them. On cancellation it returns the pairs found so far (still sorted),
// the partial statistics, and ctx's error.
func (cp *Corpus) SelfJoin(ctx context.Context, tau int, opts ...Option) ([]Pair, Stats, error) {
	q, err := cp.selfQuery(cp.state.Load(), tau, buildConfig(opts))
	if err != nil {
		return nil, Stats{}, err
	}
	return q.collect(ctx)
}

// SelfJoinSeq is the streaming SelfJoin: it returns a sequence that runs the
// join when ranged over, yielding each verified pair as the pipeline
// produces it — constant result memory, no ordering guarantee (sort the
// collected pairs, or use SelfJoin, for the canonical order). Breaking out
// of the range stops the join; ranging again re-runs it (cheaply, against
// the warm cache). Use WithStats to receive the run's statistics after the
// sequence ends. Validation and planning happen eagerly, before the
// sequence is returned; cancellation simply ends the sequence early — check
// ctx.Err() afterwards to distinguish completion from abort. The sequence is
// pinned to the corpus state at this call: later Add/Remove do not disturb a
// running (or re-run) iteration.
func (cp *Corpus) SelfJoinSeq(ctx context.Context, tau int, opts ...Option) (iter.Seq[Pair], error) {
	q, err := cp.selfQuery(cp.state.Load(), tau, buildConfig(opts))
	if err != nil {
		return nil, err
	}
	return q.seq(ctx), nil
}

// Join reports every cross pair (a ∈ this corpus, b ∈ other) within
// distance tau; Pair.I indexes into the receiver and Pair.J into other. The
// corpora must share one LabelTable (validated). The receiver is the side
// that gets indexed: every tree of other probes the receiver's per-epoch
// index, the one its self joins probe, so nothing is built for other. Each
// side's signatures are drawn from — and cached in — the corpus that owns it.
func (cp *Corpus) Join(ctx context.Context, other *Corpus, tau int, opts ...Option) ([]Pair, Stats, error) {
	q, err := cp.crossQuery(other, tau, buildConfig(opts))
	if err != nil {
		return nil, Stats{}, err
	}
	return q.collect(ctx)
}

// JoinSeq is the streaming Join, with SelfJoinSeq's contract.
func (cp *Corpus) JoinSeq(ctx context.Context, other *Corpus, tau int, opts ...Option) (iter.Seq[Pair], error) {
	q, err := cp.crossQuery(other, tau, buildConfig(opts))
	if err != nil {
		return nil, err
	}
	return q.seq(ctx), nil
}

// Search reports every corpus tree within TED tau of q, in ascending corpus
// order. Each part's per-threshold PartSJ index is built on first use and
// retained in the part's index LRU, so repeated searches at the same
// threshold pay only probing and verification; a mutation replaces the parts
// it touches, so a stale index can never serve a post-Remove query. Search
// always runs on the PartSJ index; WithMethod and WithPrefilter conflict with
// it.
func (cp *Corpus) Search(ctx context.Context, q *Tree, tau int, opts ...Option) ([]Match, error) {
	if tau < 0 {
		return nil, fmt.Errorf("%w %d", ErrNegativeThreshold, tau)
	}
	st := cp.state.Load()
	c, err := st.queryConfig(q, "Search", opts)
	if err != nil {
		return nil, err
	}
	var stats Stats
	defer c.publishStats(&stats)
	return cp.search(ctx, st, q, tau, c, &stats)
}

// search probes every part of st for the trees within tau of q, merges the
// hits into global position order and adds the parts' probe and verifier
// counters to stats.
func (cp *Corpus) search(ctx context.Context, st *corpusState, q *Tree, tau int, c config, stats *Stats) ([]Match, error) {
	hits, errs := make([][]Match, len(st.parts)), make([]error, len(st.parts))
	partStats := make([]Stats, len(st.parts))
	fanOut(len(st.parts), c.workers, func(p, workers int) {
		ix, _, err := st.parts[p].indexAt(ctx, tau, workers, cp)
		if err == nil {
			hits[p], err = ix.SearchCtx(ctx, q, &partStats[p])
		}
		for i := range hits[p] {
			hits[p][i].Pos = st.global(st.parts[p], hits[p][i].Pos)
		}
		errs[p] = err
	})
	for p := range partStats {
		sim.AddCounters(stats, &partStats[p])
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out := slices.Concat(hits...)
	core.SortMatches(out)
	return out, nil
}

// TopK returns the k closest pairs of the corpus by TED, ordered by
// (Dist, I, J) — the threshold-free SelfJoin. It runs PartSJ self joins at
// geometrically increasing thresholds until k pairs are in reach; fewer than
// k pairs come back only when the corpus has fewer than k pairs in total.
// Every threshold's join draws on the corpus cache and indexes, and
// WithWorkers parallelises it. On cancellation it returns the pairs the
// aborted join had found (best-effort, not necessarily the global top k) and
// ctx's error. TopK always runs PartSJ; WithMethod and WithPrefilter conflict
// with it.
func (cp *Corpus) TopK(ctx context.Context, k int, opts ...Option) ([]Pair, error) {
	c := buildConfig(opts)
	if err := c.requirePartSJ("TopK"); err != nil {
		return nil, err
	}
	// No single threshold's join Stats are the query's.
	c.statsDst = nil
	st := cp.state.Load()
	if k <= 0 || len(st.ts) < 2 {
		return nil, ctx.Err()
	}
	k = min(k, len(st.ts)*(len(st.ts)-1)/2)
	return sim.ExpandTau(st.max1+st.max2, k, sim.ComparePairsByDist, func(tau int) ([]Pair, error) {
		q, err := cp.selfQuery(st, tau, c)
		if err != nil {
			return nil, err
		}
		pairs, _, err := q.collect(ctx)
		return pairs, err
	})
}

// KNN returns the k corpus trees closest to q by TED, ordered by
// (Dist, Pos), with no threshold required. It runs Search at expanding
// thresholds, sharing its index LRUs, so a query workload settles into
// reusing a handful of indexes. The expansion is global — every part answers
// at the same growing τ and the loop stops as soon as k matches exist across
// their union: a per-part k-nearest fan-out would force parts that hold no
// close neighbour of q to expand all the way to the size cap, paying an index
// build per threshold for matches the merge then discards. Fewer than k
// matches are returned only when the corpus holds fewer than k trees. KNN
// always runs on the PartSJ index; WithMethod and WithPrefilter conflict with
// it.
func (cp *Corpus) KNN(ctx context.Context, q *Tree, k int, opts ...Option) ([]Match, error) {
	st := cp.state.Load()
	c, err := st.queryConfig(q, "KNN", opts)
	if err != nil {
		return nil, err
	}
	if k <= 0 || len(st.ts) == 0 {
		return nil, ctx.Err()
	}
	var stats Stats
	defer c.publishStats(&stats)
	return sim.ExpandTau(st.max1+q.Size(), min(k, len(st.ts)), core.CompareMatchesByDist, func(tau int) ([]Match, error) {
		// Check before each round: an index build is uncancellable, so don't
		// start one the caller no longer wants.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return cp.search(ctx, st, q, tau, c, &stats)
	})
}

// Incremental returns an empty streaming join with threshold tau that shares
// the corpus's signature cache: trees the corpus has already joined (or that
// were added before) enter the stream without recomputing their binary view
// or partition. Trees not live in the corpus are never cached, so a
// long-lived stream over trees of its own pins nothing beyond its live
// trees. The stream itself starts empty — it does not contain the corpus
// trees — and evolves independently of later corpus mutations; its Pairs and
// Retracted views maintain a standing result set across the stream's own
// Add/Remove sequence.
func (cp *Corpus) Incremental(tau int, opts ...Option) (*Incremental, error) {
	if tau < 0 {
		return nil, fmt.Errorf("%w %d", ErrNegativeThreshold, tau)
	}
	c := buildConfig(opts)
	if err := c.requirePartSJ("Incremental"); err != nil {
		return nil, err
	}
	live := cp.live()
	cache := engine.RoutedCache(func(t *tree.Tree) *engine.Cache {
		if live.isMember(t) {
			return live.cache
		}
		return nil
	})
	return core.NewIncrementalCached(core.Options{Tau: tau, Workers: c.workers}, cache), nil
}

// queryConfig validates a query tree and the options of an index-backed
// query (Search, KNN).
func (st *corpusState) queryConfig(q *Tree, op string, opts []Option) (config, error) {
	c := buildConfig(opts)
	if _, err := checkTrees(st.lt, "query", q); err != nil {
		return c, err
	}
	return c, c.requirePartSJ(op)
}

// requirePartSJ rejects options an index-backed or expanding-threshold
// operation cannot honor.
func (c config) requirePartSJ(op string) error {
	if c.method != MethodPartSJ {
		return fmt.Errorf("%w: %s supports MethodPartSJ only", ErrOptionConflict, op)
	}
	if len(c.prefilters) > 0 {
		return fmt.Errorf("%w: %s does not take prefilters", ErrOptionConflict, op)
	}
	return nil
}

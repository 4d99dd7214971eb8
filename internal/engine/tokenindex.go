package engine

import (
	"cmp"
	"context"
	"slices"
	"sort"
	"sync"
	"time"

	"treejoin/internal/radix"
	"treejoin/internal/sim"
	"treejoin/internal/tree"
)

// The token inverted-index candidate source: sub-quadratic candidate
// generation for every signature method whose filter rests on a bag bound
// |bag(T1) ⊖ bag(T2)| ≤ C·TED(T1, T2) (Euler q-grams with C = 4q for the
// STR/EUL/PQG class, label-histogram entries with C = 2 for HIST/SET).
//
// The sorted nested loop evaluates the method's lower bound on every pair in
// the τ size window — Θ(n²) filter calls even when almost nothing survives.
// This source inverts the work: a pair is materialised only when the index
// has already proved the two trees share enough tokens for the bound to
// possibly pass.
//
//   - Each tree is tokenised once; the bag (sorted distinct tokens with
//     multiplicities) is a τ-independent per-tree signature cached in the
//     run's artifact cache, so warm corpus joins re-tokenise nothing.
//   - Tokens are numbered in one global order, rare first (TokenRanking),
//     and each bag is held in those ids, ascending. Only a bag's front — the
//     prefix a ≤ τ match cannot avoid — is indexed: TED ≤ τ forces overlap
//     ≥ max(|A|,|B|) − Cτ, so by the prefix-filter theorem two such bags
//     share a token among their first Cτ+1 elements in any fixed order.
//     Rare-first makes those postings the short lists; lists are laid out
//     by id.
//   - A probe walks the lists of its whole bag over the size window below
//     it into a dense per-rank count (ScanCount) and offers the touched
//     ranks in order — but only those whose count reaches what their bag
//     sizes demand: a qualifying pair overlaps in ≥ |A| − Cτ elements, at
//     most |B| − p_B of them outside B's indexed prefix. The full bag is
//     what gives this threshold teeth (prefix against prefix it never
//     exceeds 1); only the lowest ids have lists, so the walk is short.
//   - Trees whose whole bag has at most Cτ elements ("light" trees) can
//     qualify while sharing no token, but only with each other: a light
//     probe offers the light trees of its window, the order's front,
//     directly.
//   - When the chain holds the tokenizer's own bag bound (BagFilter), the
//     probe decides that stage from a dense mark of its bag by id: a
//     partner's overlap is Σ min(mark[id], c) over the partner's ranked bag,
//     the multiset intersection the stage's merge computes.
//
// Every offered pair still runs through the job's filter chain (Screen →
// Emit), so the emitted candidate set is a subset of the sorted loop's
// post-filter survivors and the join result is bit-identical; see DESIGN.md,
// "Index-accelerated candidate generation", for the proofs.
//
// The index is build-then-probe, like PartSJ's: every tree's prefix is posted
// up front, in the (size, number) order, and the frozen lists are probed
// read-only by contiguous chunks of the probing trees on every worker. A self
// join's probe at order rank r walks its lists over [size ≥ sz−τ, rank < r)
// only — the postings a probe-and-insert loop would have held on reaching
// that tree — so offers, their order and every counter are those of the
// sequential loop whatever the chunking. A cross join probes the receiver's
// index and builds nothing for the partner: the prefix-filter theorem needs
// only the indexed tree's prefix, so each partner tree walks the lists over
// [sz−τ, sz+τ] with its whole bag in the receiver's ids (rankForeign); keys
// the receiver never saw count only toward its bag size. A corpus keeps the
// index per (tokenizer, τ) for the current epoch (TokenIndexResolver), all of
// them over the epoch's one ranking per tokenizer.
//
// On tiny corpora — or thresholds at least the largest tree's size, where
// the C·τ slack swallows every bag — building the index costs more than the
// loop it replaces, so Tasks falls back to the sorted loop and stamps the
// effective source into Stats.Source.

// Tokenizer turns a tree into a token multiset with a proven bag bound:
// implementations guarantee |bag(T1) ⊖ bag(T2)| ≤ Slack()·TED(T1, T2) (⊖ is
// the multiset symmetric difference) and that bag size is monotone in tree
// size — a tree at least as large by Size() yields at least as large a bag.
// Both properties are load-bearing: the first makes index pruning sound, the
// second puts the light trees at the front of the ascending-size order.
type Tokenizer interface {
	// Name labels the tokenisation in cache keys and diagnostics; it must
	// encode every parameter (e.g. "euler-grams/q=3"), so differently
	// parameterised tokenisations never alias a cache entry.
	Name() string
	// Slack returns the constant C of the bag bound.
	Slack() int
	// AppendTokens appends the token multiset of t to dst, in any order, and
	// returns the extended slice. It may use dst's spare capacity as working
	// memory: the bag build hands every tree of a worker's run the same
	// buffer, so a tokenisation that needs no other memory leaves no garbage.
	AppendTokens(dst []uint64, t *tree.Tree) []uint64
}

// funcTokenizer adapts a (name, slack, tokens) triple to the interface.
type funcTokenizer struct {
	name   string
	slack  int
	tokens func([]uint64, *tree.Tree) []uint64
}

func (f funcTokenizer) Name() string { return f.name }
func (f funcTokenizer) Slack() int   { return f.slack }
func (f funcTokenizer) AppendTokens(dst []uint64, t *tree.Tree) []uint64 {
	return f.tokens(dst, t)
}

// NewTokenizer builds a Tokenizer from a name, the bag-bound constant C, and
// the tokenisation function (AppendTokens).
func NewTokenizer(name string, slack int, tokens func(dst []uint64, t *tree.Tree) []uint64) Tokenizer {
	return funcTokenizer{name: name, slack: slack, tokens: tokens}
}

// bagFilter is a tokenizer's bag bound as a pipeline stage.
type bagFilter struct {
	name string
	tz   Tokenizer
}

// BagFilter returns tz's bag bound as a pipeline stage labelled name: a pair
// is pruned when |bag_i ⊖ bag_j| > Slack·τ. Prepare merges the cached token
// bags; a token-index probe over tz's own tokens decides the stage from its
// mark instead (see PrefixIndex.probe), with the same verdicts.
func BagFilter(name string, tz Tokenizer) PairFilter { return bagFilter{name: name, tz: tz} }

func (f bagFilter) Name() string { return f.name }

func (f bagFilter) Prepare(c *Collection) func(i, j int) bool {
	bags := cachedBags(c.Cache(), f.tz, c.Trees, c.Workers)
	limit := f.tz.Slack() * c.Tau
	return func(i, j int) bool {
		a, b := bags[i].toks, bags[j].toks
		common := 0
		for p, q := 0, 0; p < len(a) && q < len(b); {
			if a[p].key < b[q].key {
				p++
			} else if a[p].key > b[q].key {
				q++
			} else {
				common += int(min(a[p].count, b[q].count))
				p, q = p+1, q+1
			}
		}
		return int(bags[i].total)+int(bags[j].total)-2*common <= limit
	}
}

// TokenIndexMinTrees is the auto-fallback cutoff: collections with fewer
// trees run the sorted loop instead — at this size the loop's Θ(n²) cheap
// filter calls beat the index's build cost.
const TokenIndexMinTrees = 48

// TokenIndexResolver is how a corpus shares one frozen index among the joins
// of an epoch: it returns the index over its membership for (tz, τ), building
// it on first use, and reports whether this call paid for the build. nil means
// the corpus has none to offer (a view pinned to a superseded epoch). The
// source probes the answer only if it covers exactly the run's indexed side.
type TokenIndexResolver func(ctx context.Context, tz Tokenizer, tau int) (x *PrefixIndex, built bool)

type tokenIndexSource struct {
	tz     Tokenizer
	shared TokenIndexResolver
}

// TokenIndex returns the inverted-index candidate source over tz's tokens.
// shared, when non-nil, is consulted before a private index is built for the
// run.
func TokenIndex(tz Tokenizer, shared TokenIndexResolver) CandidateSource {
	return tokenIndexSource{tz: tz, shared: shared}
}

func (s tokenIndexSource) Name() string { return "token-index(" + s.tz.Name() + ")" }

// Tasks resolves the index of the run's indexed side — the corpus's, when it
// covers those trees, else one built here — and cuts the probing trees into
// contiguous chunks of about equal Σ bag size (ProbeChunks).
func (s tokenIndexSource) Tasks(c *Collection) []Task {
	if len(c.Order) == 0 || len(c.Probes) == 0 {
		return nil
	}
	// Fall back to the sorted loop when the index cannot pay for itself:
	// tiny collections, thresholds covering every size window, or a C·τ
	// slack that swallows even the largest tree's bag (bags are
	// size-monotone, so the largest tree's bag is the maximum — if it is
	// light, every tree is, and any token index degenerates to a light-list
	// scan, a worse sorted loop). The check precedes the resolver on purpose:
	// in the degenerate regime a corpus never builds or retains an index. The
	// largest bag is read through the cache, so the build reuses the
	// tokenisation when the index does run later at another threshold.
	largest := c.Trees[c.Order[len(c.Order)-1]]
	if len(c.Order) < TokenIndexMinTrees || c.Tau >= largest.Size() ||
		int(cachedBags(c.Cache(), s.tz, []*tree.Tree{largest}, 1)[0].total) <= s.tz.Slack()*c.Tau {
		// Stamp the effective source so Stats attribution reports what
		// actually ran.
		tasks := SortedLoop().Tasks(c)
		for i, t := range tasks {
			tasks[i] = func(px *Pipeline) { px.Stats().Source = SortedLoop().Name(); t(px) }
		}
		return tasks
	}
	ts := c.Trees[:len(c.Order)]
	var x *PrefixIndex
	built := false
	if s.shared != nil {
		if x, built = s.shared(c.Context(), s.tz, c.Tau); x != nil && !x.covers(ts, s.tz, c.Tau) {
			x, built = nil, false
		}
	}
	if x == nil {
		if c.Cancelled() {
			return nil
		}
		x, built = NewPrefixIndex(func() *TokenRanking { return NewTokenRanking(s.tz, ts, c.Workers, c.Cache()) }, c.Tau), true
	}
	// The probes' bags: the index's own, or a cross join partner's in the
	// index's ids. The build and this are the run's candidate generation.
	probes, off := x.TokenRanking, 0
	var build, cand time.Duration
	if built {
		build, cand = x.built, x.built
	}
	if len(c.Trees) > len(ts) {
		start := time.Now()
		probes, off = x.rankForeign(s.tz, c.Trees[len(ts):], c.Workers, c.Cache()), len(ts)
		cand += time.Since(start)
	}
	tasks := ProbeChunks(c, func(ti int) int { return int(probes.bags[ti-off].total) }, func(px *Pipeline, lo, hi int) {
		x.probe(px, probes, off, lo, hi)
	})
	if cand > 0 {
		first := tasks[0]
		tasks[0] = func(px *Pipeline) {
			px.Stats().IndexBuildTime += build
			px.Stats().CandTime += cand
			first(px)
		}
	}
	return tasks
}

// cachedBags returns every tree's token bag through cache, building the
// missing ones on workers goroutines, each over its own bagScratch.
func cachedBags(cache *Cache, tz Tokenizer, ts []*tree.Tree, workers int) []*tokenBag {
	return cachedBatch(cache, tokenBagKey(tz), ts, workers, func(ts []*tree.Tree) []*tokenBag {
		var s bagScratch
		bags := make([]tokenBag, len(ts))
		out := make([]*tokenBag, len(ts))
		for i, t := range ts {
			s.build(&bags[i], tz, t)
			out[i] = &bags[i]
		}
		return out
	})
}

// tokenCount is one distinct token of a tree's bag with its multiplicity.
type tokenCount struct {
	key   uint64
	count int32
}

// tokenBag is the cached per-tree tokenisation: distinct tokens sorted by
// key, plus the expanded bag size (Σ counts). τ-independent, so a corpus
// cache retains it across joins at any threshold.
type tokenBag struct {
	total int32
	toks  []tokenCount
}

// tokenBagKey names the artifact-cache entry of a tokenisation.
func tokenBagKey(tz Tokenizer) string { return "tokidx/" + tz.Name() }

// bagScratch is a bag build's working memory, reused across the trees of a
// worker's run: the tokenizer's output and the key sort's scatter buffer.
type bagScratch struct {
	raw, tmp []uint64
}

// build fills bag with t's tokens: the raw multiset radix-sorted by key, then
// run-length coded into a toks slice of exactly the distinct count.
func (s *bagScratch) build(bag *tokenBag, tz Tokenizer, t *tree.Tree) {
	raw := tz.AppendTokens(s.raw[:0], t)
	s.raw = raw
	if len(raw) == 0 {
		return
	}
	if len(s.tmp) < len(raw) {
		s.tmp = make([]uint64, cap(raw))
	}
	radix.Sort(raw, s.tmp)
	distinct := 1
	for k := 1; k < len(raw); k++ {
		if raw[k] != raw[k-1] {
			distinct++
		}
	}
	bag.total, bag.toks = int32(len(raw)), make([]tokenCount, distinct)
	for k, lo := 0, 0; lo < len(raw); k++ {
		hi := lo + 1
		for hi < len(raw) && raw[hi] == raw[lo] {
			hi++
		}
		bag.toks[k] = tokenCount{key: raw[lo], count: int32(hi - lo)}
		lo = hi
	}
}

// idCount is one distinct token of a ranked bag: its id and multiplicity.
type idCount struct {
	id, count int32
}

// TokenRanking numbers the distinct tokens of a collection's bags in the
// global order "rare tokens first, ties by key" — a token's id is its rank —
// and holds every tree's bag in those ids, ascending. It depends on the
// membership alone, not on τ, so every index over one collection may share
// it.
type TokenRanking struct {
	tz     string
	slack  int
	ts     []*tree.Tree
	bags   []*tokenBag // by tree: the cached bags, sorted by key
	ids    int32       // distinct tokens: the ids are [0, ids)
	keys   []uint64    // by id: the token's key
	off    []int       // by tree: tree i's ranked bag is ranked[off[i]:off[i+1]]
	ranked []idCount

	lookupOnce sync.Once
	lookup     *tokenTable // key → id, built by the first rankForeign
}

// NewTokenRanking ranks the tokens of ts's bags, drawn through cache, on
// workers goroutines (< 1: GOMAXPROCS) — the one-worker ranking at any
// worker count. Each worker numbers the distinct keys of its run of trees in
// a flat table, writing those local ids into the run's entries; the later
// runs' tables merge into the first's, summing frequencies; the merged
// tokens sort by (frequency, key), which makes a token's rank independent of
// where and in what order it was numbered; then each worker renames its
// entries to their ranks and radix-sorts every bag by rank.
func NewTokenRanking(tz Tokenizer, ts []*tree.Tree, workers int, cache *Cache) *TokenRanking {
	workers = sim.NormalizeWorkers(workers)
	rk := &TokenRanking{tz: tz.Name(), slack: tz.Slack(), ts: ts, bags: cachedBags(cache, tz, ts, workers), off: make([]int, len(ts)+1)}
	for i, b := range rk.bags {
		rk.off[i+1] = rk.off[i] + len(b.toks)
	}
	rk.ranked = make([]idCount, rk.off[len(ts)])
	runs := make([]*tokenTable, max(1, min(workers, len(ts))))
	ForRuns(len(ts), len(runs), func(w, lo, hi int) {
		tab := newTokenTable()
		for i := lo; i < hi; i++ {
			for k, tc := range rk.bags[i].toks {
				rk.ranked[rk.off[i]+k] = idCount{id: tab.add(tc.key, int64(tc.count)), count: tc.count}
			}
		}
		runs[w] = tab
	})
	// Merge the later runs into the first one's table: global[w][l] is the
	// merged id of run w's local id l, and then its rank (run 0's local ids
	// are merged ids). Then sort the merged tokens in place.
	global := make([][]int32, len(runs))
	for w := 1; w < len(runs); w++ {
		global[w] = make([]int32, len(runs[w].toks))
		for l, t := range runs[w].toks {
			global[w][l] = runs[0].add(t.key, t.freq)
		}
	}
	toks := runs[0].toks
	slices.SortFunc(toks, func(a, b token) int { return cmp.Or(cmp.Compare(a.freq, b.freq), cmp.Compare(a.key, b.key)) })
	rank := make([]int32, len(toks))
	rk.keys = make([]uint64, len(toks))
	for r, t := range toks {
		rank[t.id], rk.keys[r] = int32(r), t.key
	}
	rk.ids = int32(len(toks))
	ForRuns(len(ts), len(runs), func(w, lo, hi int) {
		local := rank
		if w > 0 {
			local = global[w]
			for l, g := range local {
				local[l] = rank[g]
			}
		}
		count := make([]int32, rk.ids)
		var keys, tmp []int32
		for i := lo; i < hi; i++ {
			bag := rk.bag(i)
			if len(keys) < len(bag) {
				n := max(len(bag), 2*len(keys))
				keys, tmp = make([]int32, n), make([]int32, n)
			}
			radixByID(bag, local, count, keys, tmp)
		}
	})
	return rk
}

// radixByID renames bag's entries through rename and orders them ascending
// by their new ids. A bag's ids are distinct, so the radix sorts the ids
// alone, and each entry's count waits in count (by new id) meanwhile; keys
// and tmp (at least bag's length) are the radix's buffers.
func radixByID(bag []idCount, rename, count, keys, tmp []int32) {
	keys = keys[:len(bag)]
	for k, e := range bag {
		keys[k] = rename[e.id]
		count[keys[k]] = e.count
	}
	radix.Sort(keys, tmp)
	for k, id := range keys {
		bag[k] = idCount{id: id, count: count[id]}
	}
}

// tokenTable numbers distinct token keys in first-insertion order and sums
// each one's frequency: open addressing with linear probing over a
// power-of-two array of ids plus one (0: empty) kept at most half full, so
// every key — 0 and 2^64−1 included — is a legal key.
type tokenTable struct {
	slots []int32
	shift uint    // 64 − log2(len(slots))
	toks  []token // by id
}

// token is a distinct token of a tokenTable: its key, its summed frequency
// and its id.
type token struct {
	freq int64
	key  uint64
	id   int32
}

// tokenTableLog is the log2 slot count of a new tokenTable.
const tokenTableLog = 10

func newTokenTable() *tokenTable {
	return &tokenTable{slots: make([]int32, 1<<tokenTableLog), shift: 64 - tokenTableLog}
}

// home is key's first probe slot: Fibonacci hashing, so that small and
// sequential keys (label ids) spread as well as hashed ones.
func (t *tokenTable) home(key uint64) int { return int(key * 0x9e3779b97f4a7c15 >> t.shift) }

// slot returns the slot that holds key, or the empty one where it goes.
func (t *tokenTable) slot(key uint64) int {
	h, mask := t.home(key), len(t.slots)-1
	for t.slots[h] != 0 && t.toks[t.slots[h]-1].key != key {
		h = (h + 1) & mask
	}
	return h
}

// add adds count occurrences of key and returns its id.
func (t *tokenTable) add(key uint64, count int64) int32 {
	h := t.slot(key)
	if t.slots[h] == 0 {
		t.slots[h] = int32(len(t.toks)) + 1
		t.toks = append(t.toks, token{key: key, id: t.slots[h] - 1})
	}
	id := t.slots[h] - 1
	t.toks[id].freq += count
	if 2*len(t.toks) > len(t.slots) {
		t.grow()
	}
	return id
}

// get returns key's id, or −1 when the table does not hold it.
func (t *tokenTable) get(key uint64) int32 { return t.slots[t.slot(key)] - 1 }

// grow doubles the slot array and re-files every key.
func (t *tokenTable) grow() {
	t.slots, t.shift = make([]int32, 2*len(t.slots)), t.shift-1
	for _, tok := range t.toks {
		t.slots[t.slot(tok.key)] = tok.id + 1
	}
}

// bag returns tree i's ranked bag.
func (rk *TokenRanking) bag(i int) []idCount { return rk.ranked[rk.off[i]:rk.off[i+1]] }

// posting records that the prefix of the tree at an order rank contains count
// occurrences of a token. Lists are ascending in rank — the (size, number)
// order — so a probe binary-searches its size window and walks each list
// front to back to the window's end.
type posting struct {
	rank  int32
	count int32
}

// PrefixIndex is the frozen token index of one collection at one threshold,
// over the collection's ranking: every tree's prefix posted, nothing inserted
// afterwards, so any number of probes read it concurrently.
type PrefixIndex struct {
	*TokenRanking
	tau   int
	ctau  int32     // Slack·τ: the bag bound's slack, and the light-tree cutoff
	plen  []int32   // by tree: expanded prefix length p_i = min(Slack·τ+1, total_i)
	start []int32   // id's list is post[start[id]:start[id+1]]; ids past the end have none
	post  []posting // the lists, by id
	light int32     // the light trees are the order ranks below it
	built time.Duration
}

// NewPrefixIndex builds the index at threshold tau, with a prefix of
// Slack·τ+1 expanded elements per tree, over the ranking rank returns. rank
// runs on the build's clock: a ranking built for this index is part of its
// build time, one an earlier index built is not.
//
// It posts, in the ascending-size order, the first Slack·τ+1 expanded tokens
// of every tree's bag under the global order — the front of its ranked bag,
// the last entry's count clipped. Rare tokens have the short posting lists,
// so prefixes drawn from the front of this order keep probe work minimal; any
// fixed total order is sound, frequency ordering is the classic heuristic.
func NewPrefixIndex(rank func() *TokenRanking, tau int) *PrefixIndex {
	start := time.Now()
	rk := rank()
	order := sim.SizeOrder(rk.ts)
	x := &PrefixIndex{TokenRanking: rk, tau: tau, ctau: int32(rk.slack * tau), plen: make([]int32, len(rk.ts))}
	budget := x.ctau + 1
	walk := func(post func(r int32, e idCount)) {
		for r := len(order) - 1; r >= 0; r-- {
			ti := order[r]
			x.plen[ti] = 0
			for _, e := range rk.bag(ti) {
				if x.plen[ti] == budget {
					break
				}
				e.count = min(e.count, budget-x.plen[ti])
				x.plen[ti] += e.count
				post(int32(r), e)
			}
		}
	}
	// Count the lists' lengths by id and sum them, so start[id] closes id's
	// list; filling from the back, with the ranks walked down, leaves every
	// list ascending in rank and start[id] where it opens. The ids past the
	// last list are cut off.
	x.start = make([]int32, rk.ids+1)
	walk(func(_ int32, e idCount) { x.start[e.id]++ })
	for id := 1; id < len(x.start); id++ {
		x.start[id] += x.start[id-1]
	}
	x.post = make([]posting, x.start[rk.ids])
	walk(func(r int32, e idCount) {
		x.start[e.id]--
		x.post[x.start[e.id]] = posting{rank: r, count: e.count}
	})
	n, _ := slices.BinarySearch(x.start, int32(len(x.post)))
	x.start = slices.Clone(x.start[:n+1])
	// Bags are size-monotone, so the light trees are the order's front.
	x.light = int32(sort.Search(len(order), func(r int) bool { return rk.bags[order[r]].total > x.ctau }))
	x.built = time.Since(start)
	return x
}

// covers reports whether x indexes exactly ts, in order, for this
// tokenisation and threshold — what lets a run probe an index it did not
// build.
func (x *PrefixIndex) covers(ts []*tree.Tree, tz Tokenizer, tau int) bool {
	return x.tz == tz.Name() && x.tau == tau && slices.Equal(x.ts, ts)
}

// rankForeign returns ts, trees outside x's ranking, in its ids: their cached
// bags renamed on workers goroutines, the entries with lists first (what the
// probe's walk reads), keys the ranking never saw all on the id past its last
// (counted in bag sizes only). The first call builds the ranking's key → id
// table, which a self join never needs.
func (x *PrefixIndex) rankForeign(tz Tokenizer, ts []*tree.Tree, workers int, cache *Cache) *TokenRanking {
	rk := x.TokenRanking
	rk.lookupOnce.Do(func() {
		rk.lookup = newTokenTable()
		for _, key := range rk.keys {
			rk.lookup.add(key, 0) // numbered in id order, so its id
		}
	})
	fr := &TokenRanking{tz: rk.tz, slack: rk.slack, ts: ts, bags: cachedBags(cache, tz, ts, workers), ids: rk.ids + 1, off: make([]int, len(ts)+1)}
	for i, b := range fr.bags {
		fr.off[i+1] = fr.off[i] + len(b.toks)
	}
	fr.ranked = make([]idCount, fr.off[len(ts)])
	posted := int32(len(x.start)) - 1
	ForRuns(len(ts), workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			bag, front := fr.bag(i), 0
			for k, tc := range fr.bags[i].toks {
				id := rk.lookup.get(tc.key)
				if id < 0 {
					id = rk.ids
				}
				bag[k] = idCount{id: id, count: tc.count}
				if id < posted {
					bag[front], bag[k] = bag[k], bag[front]
					front++
				}
			}
		}
	})
	return fr
}

// bagProbe is the index tokenizer's bag stage decided inside a probe.
type bagProbe struct {
	at    int     // the stage's chain position
	mark  []int32 // by id: the current probe's multiplicities; nil outside a probe
	total int32   // the current probe's bag size
	limit int32   // Slack·τ
	rank  *TokenRanking
}

// keep is the stage's verdict on the current probe and partner j: bagFilter's
// test on the same multisets.
func (b *bagProbe) keep(j int) bool {
	var common int32
	for _, e := range b.rank.bag(j) {
		common += min(b.mark[e.id], e.count)
	}
	return b.total+b.rank.bags[j].total-2*common <= b.limit
}

// probe offers, for each probing tree at positions [lo, hi) of Probes, its
// candidate partners in its window (Collection.window) in rank order, like
// the sorted loop's pair enumeration. Probing tree ti's bag is tree ti−off of
// probes.
func (x *PrefixIndex) probe(px *Pipeline, probes *TokenRanking, off, lo, hi int) {
	c, ctau := px.Collection(), x.ctau
	stats := px.Stats()
	start := time.Now()
	// Every partner of the chunk sits in [base, top): windows only move right
	// along the size order. One allocation holds the per-rank shared-token
	// counts, the ranks touched by the current probe and, when the chain
	// holds this tokenizer's bag stage, the probe's mark by token id.
	base, _ := c.window(c.Probes[lo])
	_, top := c.window(c.Probes[hi-1])
	n := max(top-base, 0)
	marks := 0
	for k, f := range c.filters {
		if b, ok := f.(bagFilter); ok && b.tz.Name() == x.tz {
			px.inProbe, marks = bagProbe{at: k, limit: ctau, rank: x.TokenRanking}, int(probes.ids)
			break
		}
	}
	scratch := make([]int32, 2*n+marks)
	cnt, touched, mark := scratch[:n], scratch[n:n], scratch[2*n:]
	posted := int32(len(x.start)) - 1
	for _, ti := range c.Probes[lo:hi] {
		if px.Cancelled() {
			break
		}
		from, to := c.window(ti)
		bag, la := probes.bag(ti-off), probes.bags[ti-off].total
		if marks > 0 {
			for _, e := range bag {
				mark[e.id] = e.count
			}
			px.inProbe.mark, px.inProbe.total = mark, la
		}
		if la <= ctau {
			// Light probe: a partner may share nothing with it only if light
			// too; a heavy one shares a token with its prefix, found below.
			for ; from < min(to, int(x.light)); from++ {
				px.Offer(ti, c.Order[from])
			}
		}
		if from < to {
			// Indexed probe: add each partner's tokens shared with the
			// probe's whole bag into its count cell. Only the rarest tokens
			// have lists, and they lead the bag (an indexed tree's ascends by
			// id), so the walk ends at the first id past them.
			for _, e := range bag {
				if e.id >= posted {
					break
				}
				list := x.post[x.start[e.id]:x.start[e.id+1]]
				k, _ := slices.BinarySearchFunc(list, int32(from), func(p posting, rank int32) int { return int(p.rank - rank) })
				for ; k < len(list) && int(list[k].rank) < to; k++ {
					s := list[k].rank - int32(base)
					if cnt[s] == 0 {
						touched = append(touched, s)
					}
					cnt[s] += min(e.count, list[k].count)
					stats.PostingsScanned++
				}
			}
			// Offer in rank order, as the sorted loop would, zeroing each
			// cell for the next probe. Count threshold: for same-bag-size
			// partners it is the prefix theorem's ≥ 1; it climbs with the
			// bag-size gap, so partners at the small end of the size window
			// need the most shared tokens. A partner with the larger bag (a
			// cross join's) owes the bag bound's own overlap floor,
			// (la + lb − Cτ)/2, the rest of its bag lying outside the lists.
			slices.Sort(touched)
			for _, s := range touched {
				tj := c.Order[int32(base)+s]
				lb, need := x.bags[tj].total, la-ctau
				if lb > la {
					need = (la + lb - ctau + 1) / 2
				}
				if cnt[s] >= max(need-(lb-x.plen[tj]), 1) {
					px.Offer(ti, tj)
				} else {
					stats.SkippedByCount++
				}
				cnt[s] = 0
			}
			touched = touched[:0]
		}
		if marks > 0 {
			for _, e := range bag {
				mark[e.id] = 0
			}
		}
	}
	px.inProbe.mark = nil
	stats.CandTime += time.Since(start)
}

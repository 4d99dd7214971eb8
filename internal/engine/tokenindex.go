package engine

import (
	"cmp"
	"context"
	"math/bits"
	"slices"
	"time"

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
//     qualify while sharing no token at all; they are kept in a side list
//     and screened directly. A light probe scans only that list (its
//     size-window partners are light too, bags being size-monotone).
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
// read-only by contiguous chunks of that order on every worker. The probe at
// order rank r walks its lists over [size ≥ sz−τ, rank < r) only — precisely
// the postings a probe-and-insert loop would have held on reaching that tree
// — so offers, their order and every counter are those of the sequential
// loop whatever the chunking. A corpus keeps the self-join index per
// (tokenizer, τ, C′) for the current epoch (TokenIndexResolver), all of them
// over the epoch's one ranking per tokenizer; cross joins rank and build both
// sides per run, under the combined frequency order, and each side probes
// the other below its own rank.
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
// second lets the ascending-size probe order assume the probe's bag is the
// larger one.
type Tokenizer interface {
	// Name labels the tokenisation in cache keys and diagnostics; it must
	// encode every parameter (e.g. "euler-grams/q=3"), so differently
	// parameterised tokenisations never alias a cache entry.
	Name() string
	// Slack returns the constant C of the bag bound.
	Slack() int
	// Tokens returns the token multiset of t, in any order.
	Tokens(t *tree.Tree) []uint64
}

// funcTokenizer adapts a (name, slack, tokens) triple to the interface.
type funcTokenizer struct {
	name   string
	slack  int
	tokens func(*tree.Tree) []uint64
}

func (f funcTokenizer) Name() string                 { return f.name }
func (f funcTokenizer) Slack() int                   { return f.slack }
func (f funcTokenizer) Tokens(t *tree.Tree) []uint64 { return f.tokens(t) }

// NewTokenizer builds a Tokenizer from a name, the bag-bound constant C, and
// the tokenisation function.
func NewTokenizer(name string, slack int, tokens func(*tree.Tree) []uint64) Tokenizer {
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

// TokenIndexResolver is how a corpus shares one frozen index among the self
// joins of an epoch: it returns the index over its membership for (tz, τ,
// prefix multiplier C′), building it on first use, and reports whether this
// call paid for the build. nil means the corpus has none to offer (a view
// pinned to a superseded epoch). The source probes the answer only if it
// covers exactly the run's collection.
type TokenIndexResolver func(ctx context.Context, tz Tokenizer, tau, prefixC int) (x *PrefixIndex, built bool)

type tokenIndexSource struct {
	tz     Tokenizer
	shared TokenIndexResolver
}

// TokenIndex returns the inverted-index candidate source over tz's tokens.
// shared, when non-nil, is consulted for self joins before a private index is
// built for the run.
func TokenIndex(tz Tokenizer, shared TokenIndexResolver) CandidateSource {
	return tokenIndexSource{tz: tz, shared: shared}
}

func (s tokenIndexSource) Name() string { return "token-index(" + s.tz.Name() + ")" }

// Tasks resolves the run's index — the corpus's, when it covers the
// collection, else one built here — and cuts the size order into contiguous
// probe chunks of about equal Σ bag size (ProbeChunks).
func (s tokenIndexSource) Tasks(c *Collection) []Task {
	if len(c.Order) == 0 {
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
			inner := t
			tasks[i] = func(px *Pipeline) {
				px.Stats().Source = SortedLoop().Name()
				inner(px)
			}
		}
		return tasks
	}
	// The indexed prefix spends C'τ+1 expanded elements, where C' is the
	// tokenizer's Slack unless a fixed plan pinned more (Collection.PrefixC). A
	// longer prefix is always sound — it is a superset of the proven
	// Slack·τ+1 prefix, so the theorem's shared token is still indexed — and
	// it sharpens the count threshold, which charges a partner for the bag
	// elements outside its prefix. Everything stated on the bag bound itself
	// (the light-tree cutoff, the overlap floor |A| − Cτ) stays at Slack·τ:
	// those are lower-bound facts the prefix length cannot change.
	cmul := max(s.tz.Slack(), c.PrefixC)
	var x *PrefixIndex
	built := false
	if s.shared != nil && !c.Cross() {
		if x, built = s.shared(c.Context(), s.tz, c.Tau, cmul); x != nil && !x.covers(c.Trees, s.tz, c.Tau, cmul) {
			x, built = nil, false
		}
	}
	if x == nil {
		if c.Cancelled() {
			return nil
		}
		x, built = buildPrefixIndex(s.tz, c.Trees, c.Split, c.Order, c.Tau, cmul, c.Workers, c.Cache()), true
	}
	tasks := ProbeChunks(c, func(ti int) int { return int(x.bags[ti].total) }, x.probe)
	if built {
		// The build is candidate-generation effort of this run; a run that
		// found the index built reports none.
		first := tasks[0]
		tasks[0] = func(px *Pipeline) {
			px.Stats().IndexBuildTime += x.built
			px.Stats().CandTime += x.built
			first(px)
		}
	}
	return tasks
}

// cachedBags returns every tree's token bag through cache, building the
// missing ones on workers goroutines.
func cachedBags(cache *Cache, tz Tokenizer, ts []*tree.Tree, workers int) []*tokenBag {
	return Cached(cache, tokenBagKey(tz), ts, workers, func(t *tree.Tree) *tokenBag { return buildBag(tz, t) })
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

func buildBag(tz Tokenizer, t *tree.Tree) *tokenBag {
	raw := tz.Tokens(t)
	if len(raw) == 0 {
		return &tokenBag{}
	}
	slices.Sort(raw)
	bag := &tokenBag{total: int32(len(raw)), toks: make([]tokenCount, 0, len(raw))}
	for lo := 0; lo < len(raw); {
		hi := lo + 1
		for hi < len(raw) && raw[hi] == raw[lo] {
			hi++
		}
		bag.toks = append(bag.toks, tokenCount{key: raw[lo], count: int32(hi - lo)})
		lo = hi
	}
	bag.toks = slices.Clip(bag.toks)
	return bag
}

// idCount is one distinct token of a ranked bag: its id and multiplicity.
type idCount struct {
	id, count int32
}

// TokenRanking numbers the distinct tokens of a collection's bags in the
// global order "rare tokens first, ties by key" — a token's id is its rank —
// and holds every tree's bag in those ids, ascending. It depends on the
// membership alone, not on τ or C′, so every index over one collection may
// share it.
type TokenRanking struct {
	tz     string
	slack  int
	ts     []*tree.Tree
	bags   []*tokenBag // by tree: the cached bags, sorted by key
	ids    int32       // distinct tokens: the ids are [0, ids)
	off    []int       // by tree: tree i's ranked bag is ranked[off[i]:off[i+1]]
	ranked []idCount
}

// NewTokenRanking ranks the tokens of ts's bags, drawn through cache, on
// workers goroutines (< 1: GOMAXPROCS) — the one-worker ranking at any
// worker count. Each worker numbers the distinct keys of its run of trees in
// a flat table, writing those local ids into the run's entries; the later
// runs' tables merge into the first's, summing frequencies; the merged
// tokens sort by (frequency, key), which makes a token's rank independent of
// where and in what order it was numbered; then each worker renames its
// entries to their ranks and orders every bag with a radix over the ranks'
// digits.
func NewTokenRanking(tz Tokenizer, ts []*tree.Tree, workers int, cache *Cache) *TokenRanking {
	workers = sim.NormalizeWorkers(workers)
	rk := &TokenRanking{tz: tz.Name(), slack: tz.Slack(), ts: ts, bags: cachedBags(cache, tz, ts, workers), off: make([]int, len(ts)+1)}
	for i, b := range rk.bags {
		rk.off[i+1] = rk.off[i] + len(b.toks)
	}
	rk.ranked = make([]idCount, rk.off[len(ts)])
	runs := make([]*tokenTable, max(1, min(workers, len(ts))))
	forRuns(len(ts), len(runs), func(w, lo, hi int) {
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
	for r, t := range toks {
		rank[t.id] = int32(r)
	}
	rk.ids = int32(len(toks))
	// The fewest radix passes over digits of at most a byte, the digits as
	// narrow as those passes allow: fewer buckets to clear per small bag.
	idBits := bits.Len32(uint32(max(rk.ids-1, 0)))
	passes := max(1, (idBits+7)/8)
	digit := (idBits + passes - 1) / passes
	forRuns(len(ts), len(runs), func(w, lo, hi int) {
		local := rank
		if w > 0 {
			local = global[w]
			for l, g := range local {
				local[l] = rank[g]
			}
		}
		var tmp []idCount
		for i := lo; i < hi; i++ {
			bag := rk.bag(i)
			for k := range bag {
				bag[k].id = local[bag[k].id]
			}
			if len(tmp) < len(bag) {
				tmp = make([]idCount, max(len(bag), 2*len(tmp)))
			}
			radixByID(bag, tmp, passes, digit)
		}
	})
	return rk
}

// radixByID orders bag ascending by id, ids below 2^(passes·digit), with an
// LSD radix over digits of digit ≤ 8 bits; tmp (at least bag's length) is its
// other buffer.
func radixByID(bag, tmp []idCount, passes, digit int) {
	src, dst := bag, tmp[:len(bag)]
	var counts [256]int32
	at, mask := counts[:1<<digit], int32(1)<<digit-1
	for p := range passes {
		shift := digit * p
		clear(at)
		for _, e := range src {
			at[e.id>>shift&mask]++
		}
		var sum int32
		for b, c := range at {
			at[b] = sum
			sum += c
		}
		for _, e := range src {
			b := e.id >> shift & mask
			dst[at[b]] = e
			at[b]++
		}
		src, dst = dst, src
	}
	if passes%2 == 1 {
		copy(bag, src)
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

// add adds count occurrences of key and returns its id.
func (t *tokenTable) add(key uint64, count int64) int32 {
	mask := len(t.slots) - 1
	for h := t.home(key); ; h = (h + 1) & mask {
		id := t.slots[h] - 1
		if id < 0 {
			id = int32(len(t.toks))
			t.slots[h] = id + 1
			t.toks = append(t.toks, token{freq: count, key: key, id: id})
			if 2*len(t.toks) > len(t.slots) {
				t.grow()
			}
			return id
		}
		if t.toks[id].key == key {
			t.toks[id].freq += count
			return id
		}
	}
}

// grow doubles the slot array and re-files every key.
func (t *tokenTable) grow() {
	t.slots, t.shift = make([]int32, 2*len(t.slots)), t.shift-1
	mask := len(t.slots) - 1
	for _, tok := range t.toks {
		h := t.home(tok.key)
		for t.slots[h] != 0 {
			h = (h + 1) & mask
		}
		t.slots[h] = tok.id + 1
	}
}

// bag returns tree i's ranked bag.
func (rk *TokenRanking) bag(i int) []idCount { return rk.ranked[rk.off[i]:rk.off[i+1]] }

// posting records that the prefix of the tree at an order rank contains count
// occurrences of a token. Lists are ascending in rank — the (size, number)
// order — so a probe binary-searches its size window and walks each list
// front to back up to its own rank.
type posting struct {
	rank  int32
	count int32
}

// tokenSide is one side's postings, laid out by token id: id's list is
// post[start[id]:start[id+1]], and the ids from len(start)−1 on rank past
// every indexed prefix and have none. light holds the order ranks of the
// light trees, ascending.
type tokenSide struct {
	start []int32
	post  []posting
	light []int32
}

// PrefixIndex is the frozen token index of one collection at one threshold
// and prefix multiplier, over the collection's ranking: every tree's prefix
// posted, nothing inserted afterwards, so any number of probes read it
// concurrently.
type PrefixIndex struct {
	*TokenRanking
	tau, cmul int
	ctau      int32        // Slack·τ: the bag bound's slack, and the light-tree cutoff
	plen      []int32      // by tree: expanded prefix length p_i = min(C'τ+1, total_i)
	sides     [2]tokenSide // [0]: the collection's (self join) or side A's; [1]: side B's
	built     time.Duration
}

// NewPrefixIndex builds the self-join index at threshold tau, with a prefix of
// max(Slack, prefixC)·τ+1 expanded elements per tree, over the ranking rank
// returns. rank runs on the build's clock: a ranking built for this index is
// part of its build time, one an earlier index built is not.
func NewPrefixIndex(rank func() *TokenRanking, tau, prefixC int) *PrefixIndex {
	start := time.Now()
	rk := rank()
	x := rk.index(-1, sim.SizeOrder(rk.ts), tau, max(rk.slack, prefixC))
	x.built = time.Since(start)
	return x
}

// covers reports whether x indexes exactly ts, in order, for this
// tokenisation, threshold and prefix multiplier — what lets a run probe an
// index it did not build.
func (x *PrefixIndex) covers(ts []*tree.Tree, tz Tokenizer, tau, cmul int) bool {
	return x.tz == tz.Name() && x.tau == tau && x.cmul == cmul && slices.Equal(x.ts, ts)
}

// buildPrefixIndex ranks ts's tokens privately and indexes them; a cross join
// (split ≥ 0) ranks both sides together.
func buildPrefixIndex(tz Tokenizer, ts []*tree.Tree, split int, order []int, tau, cmul, workers int, cache *Cache) *PrefixIndex {
	start := time.Now()
	x := NewTokenRanking(tz, ts, workers, cache).index(split, order, tau, cmul)
	x.built = time.Since(start)
	return x
}

// index posts, in the ascending-size order, the first cmul·τ+1 expanded
// tokens of every tree's bag under the global order — the front of its ranked
// bag, the last entry's count clipped. Rare tokens have the short posting
// lists, so prefixes drawn from the front of this order keep probe work
// minimal; any fixed total order is sound, frequency ordering is the classic
// heuristic. A cross join (split ≥ 0) posts each tree on its own side.
func (rk *TokenRanking) index(split int, order []int, tau, cmul int) *PrefixIndex {
	x := &PrefixIndex{TokenRanking: rk, tau: tau, cmul: cmul, ctau: int32(rk.slack * tau), plen: make([]int32, len(rk.ts))}
	side := func(ti int) *tokenSide {
		if split >= 0 && ti >= split {
			return &x.sides[1]
		}
		return &x.sides[0]
	}
	budget := int32(cmul*tau + 1)
	walk := func(post func(s *tokenSide, r int32, e idCount)) {
		for r := len(order) - 1; r >= 0; r-- {
			ti := order[r]
			x.plen[ti] = 0
			for _, e := range rk.bag(ti) {
				if x.plen[ti] == budget {
					break
				}
				e.count = min(e.count, budget-x.plen[ti])
				x.plen[ti] += e.count
				post(side(ti), int32(r), e)
			}
		}
	}
	// Each side counts its lists' lengths by id and sums them, so start[id]
	// closes id's list; filling from the back, with the ranks walked down,
	// leaves every list ascending in rank and start[id] where it opens. The
	// ids past the last list are cut off.
	for k := range x.sides {
		x.sides[k].start = make([]int32, rk.ids+1)
	}
	walk(func(s *tokenSide, _ int32, e idCount) { s.start[e.id]++ })
	for k := range x.sides {
		s := &x.sides[k]
		for id := 1; id < len(s.start); id++ {
			s.start[id] += s.start[id-1]
		}
		s.post = make([]posting, s.start[rk.ids])
	}
	walk(func(s *tokenSide, r int32, e idCount) {
		s.start[e.id]--
		s.post[s.start[e.id]] = posting{rank: r, count: e.count}
	})
	for k := range x.sides {
		s := &x.sides[k]
		n, _ := slices.BinarySearch(s.start, int32(len(s.post)))
		s.start = slices.Clone(s.start[:n+1])
	}
	// Every tree's prefix is indexed (a light tree may still be found through
	// it by a heavier probe); light trees join the side list too.
	for r, ti := range order {
		if s := side(ti); rk.bags[ti].total <= x.ctau {
			s.light = append(s.light, int32(r))
		}
	}
	return x
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

// probe offers, for each tree at order ranks [lo, hi), its candidate partners
// among the trees before it — for a cross join, those on the other side —
// exactly like the sorted loop's pair enumeration: every unordered pair at
// most once, at its larger tree's rank.
func (x *PrefixIndex) probe(px *Pipeline, lo, hi int) {
	c, ctau := px.Collection(), x.ctau
	stats := px.Stats()
	start := time.Now()
	// Every partner of the chunk sits in [base, hi): windows only move right
	// along the size order. One allocation holds the per-rank shared-token
	// counts, the ranks touched by the current probe and, when the chain
	// holds this tokenizer's bag stage, the probe's mark by token id.
	base := int32(c.WindowStart(c.Trees[c.Order[lo]].Size()))
	n := hi - int(base)
	marks := 0
	for k, f := range c.filters {
		if b, ok := f.(bagFilter); ok && b.tz.Name() == x.tz {
			px.inProbe, marks = bagProbe{at: k, limit: ctau, rank: x.TokenRanking}, int(x.ids)
			break
		}
	}
	scratch := make([]int32, 2*n+marks)
	cnt, touched, mark := scratch[:n], scratch[n:n], scratch[2*n:]
	for r := lo; r < hi && !px.Cancelled(); r++ {
		ti, me := c.Order[r], int32(r)
		side := &x.sides[0]
		if c.Cross() && ti < c.Split {
			side = &x.sides[1]
		}
		from := int32(c.WindowStart(c.Trees[ti].Size())) // first rank inside the size window
		bag, la := x.bag(ti), x.bags[ti].total
		if marks > 0 {
			for _, e := range bag {
				mark[e.id] = e.count
			}
			px.inProbe.mark, px.inProbe.total = mark, la
		}
		if la <= ctau {
			// Light probe: a qualifying partner may share nothing, but every
			// size-window partner before it is light too (bags are
			// size-monotone), so the side list is exhaustive.
			k, _ := slices.BinarySearch(side.light, from)
			for ; k < len(side.light) && side.light[k] < me; k++ {
				px.Offer(ti, c.Order[side.light[k]])
			}
		} else {
			// Indexed probe: add each partner's tokens shared with the
			// probe's whole bag into its count cell. Only the rarest tokens
			// have lists, and the bag ascends by id, so the walk ends at the
			// first id past them.
			posted := int32(len(side.start)) - 1
			for _, e := range bag {
				if e.id >= posted {
					break
				}
				list := side.post[side.start[e.id]:side.start[e.id+1]]
				k, _ := slices.BinarySearchFunc(list, from, func(p posting, rank int32) int { return int(p.rank - rank) })
				for ; k < len(list) && list[k].rank < me; k++ {
					s := list[k].rank - base
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
			// need the most shared tokens.
			slices.Sort(touched)
			for _, s := range touched {
				tj := c.Order[base+s]
				if cnt[s] >= max(la-ctau-(x.bags[tj].total-x.plen[tj]), 1) {
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

package engine

import (
	"context"
	"slices"
	"sync"
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
//   - Tokens are globally frequency-ordered (rare first). Of each tree's
//     bag, only the prefix a ≤ τ match cannot avoid is indexed: TED ≤ τ
//     forces multiset overlap ≥ max(|A|,|B|) − Cτ, and by the prefix-filter
//     theorem two such bags must share a token among their first Cτ+1
//     elements in any fixed total order. Rare-first ordering makes those
//     prefix postings the shortest ones.
//   - Probing walks each posting list of the probe's whole bag once over
//     the size window below it, adding each partner's tokens shared with
//     the probe into a dense per-rank count (ScanCount); the touched ranks,
//     sorted, come out in the sorted loop's order. A partner is handed to
//     the filter chain only when its count reaches the threshold its bag
//     sizes demand: a qualifying pair overlaps in ≥ |A| − Cτ elements, of
//     which at most |B| − p_B fall outside B's indexed prefix, so fewer than
//     |A| − Cτ − (|B| − p_B) hits prove the bound unreachable and the pair
//     is dropped without ever running a pair predicate. Probing with the
//     full bag rather than the probe's own prefix is what gives the
//     threshold teeth (under symmetric prefixes it provably never exceeds
//     1); only globally rare tokens have posting lists, so most bag tokens
//     cost one empty map lookup.
//   - Trees whose whole bag has at most Cτ elements ("light" trees) can
//     qualify while sharing no token at all; they are kept in a side list
//     and paired by direct screening — cheap precisely because such trees
//     are tiny. A probe with a light bag scans only that list (all its
//     size-window partners are light too, bags being size-monotone).
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
// (tokenizer, τ, C′) for the current epoch (TokenIndexResolver); cross joins
// build both sides per run, under the combined frequency order, and each
// side probes the other below its own rank.
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
		int(s.cachedBag(c, largest).total) <= s.tz.Slack()*c.Tau {
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
	// tokenizer's Slack unless the planner raised it (Collection.PrefixC). A
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

// cachedBag returns one tree's token bag through the run's artifact cache.
func (s tokenIndexSource) cachedBag(c *Collection, t *tree.Tree) *tokenBag {
	key := tokenBagKey(s.tz)
	if v, ok := c.Cache().Lookup(key, t); ok {
		return v.(*tokenBag)
	}
	b := buildBag(s.tz, t)
	c.Cache().Store(key, t, b)
	return b
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

// scratchTok is one distinct token of a bag during prefix selection,
// carrying the token's global frequency so the selection can sort by the
// global order directly.
type scratchTok struct {
	freq  int64
	key   uint64
	count int32
}

// posting records that the prefix of the tree at an order rank contains count
// occurrences of a token. Lists are ascending in rank — the (size, number)
// order — so a probe binary-searches its size window and walks each list
// front to back up to its own rank.
type posting struct {
	rank  int32
	count int32
}

// tokenSide is one side's postings: the lists by token key, and the order
// ranks of the light trees, ascending.
type tokenSide struct {
	post  map[uint64][]posting
	light []int32
}

// PrefixIndex is the frozen token index of one collection at one threshold
// and prefix multiplier: every tree's prefix posted, nothing inserted
// afterwards, so any number of probes read it concurrently.
type PrefixIndex struct {
	tz        string
	tau, cmul int
	ctau      int32 // Slack·τ: the bag bound's slack, and the light-tree cutoff
	ts        []*tree.Tree
	bags      []*tokenBag  // by tree
	plen      []int32      // by tree: expanded prefix length p_i = min(C'τ+1, total_i)
	sides     [2]tokenSide // [0]: the collection's (self join) or side A's; [1]: side B's
	built     time.Duration
}

// NewPrefixIndex builds the self-join index over ts for threshold tau with a
// prefix of max(tz.Slack(), prefixC)·τ+1 expanded elements per tree, drawing
// the bags through cache, on workers goroutines (< 1: GOMAXPROCS).
func NewPrefixIndex(tz Tokenizer, ts []*tree.Tree, tau, prefixC, workers int, cache *Cache) *PrefixIndex {
	return buildPrefixIndex(tz, ts, -1, sim.SizeOrder(ts), tau, max(tz.Slack(), prefixC), sim.NormalizeWorkers(workers), cache)
}

// covers reports whether x indexes exactly ts, in order, for this
// tokenisation, threshold and prefix multiplier — what lets a run probe an
// index it did not build.
func (x *PrefixIndex) covers(ts []*tree.Tree, tz Tokenizer, tau, cmul int) bool {
	return x.tz == tz.Name() && x.tau == tau && x.cmul == cmul && slices.Equal(x.ts, ts)
}

// buildPrefixIndex posts, in the ascending-size order, the first cmul·τ+1
// expanded tokens of every tree's bag under the global order "rare tokens
// first, ties by key": rare tokens have the short posting lists, so prefixes
// drawn from the front of this order keep probe work minimal. Any fixed total
// order is sound; frequency ordering is the classic heuristic. A cross join
// (split ≥ 0) posts each tree on its own side. Bags, counts and prefixes are
// built on workers runs side by side; the postings are then appended in rank
// order, so every list is the one-run build's at any worker count.
func buildPrefixIndex(tz Tokenizer, ts []*tree.Tree, split int, order []int, tau, cmul, workers int, cache *Cache) *PrefixIndex {
	start := time.Now()
	x := &PrefixIndex{tz: tz.Name(), tau: tau, cmul: cmul, ctau: int32(tz.Slack() * tau), ts: ts, plen: make([]int32, len(ts))}
	x.bags = Cached(cache, tokenBagKey(tz), ts, workers, func(t *tree.Tree) *tokenBag { return buildBag(tz, t) })
	// Each run of bags counts its token frequencies, and the runs' counts
	// are summed into the first run to finish.
	var mu sync.Mutex
	var freq map[uint64]int64
	forRuns(len(x.bags), workers, func(lo, hi int) {
		m := make(map[uint64]int64, 1<<10)
		for _, b := range x.bags[lo:hi] {
			for _, tc := range b.toks {
				m[tc.key] += int64(tc.count)
			}
		}
		mu.Lock()
		defer mu.Unlock()
		if freq == nil {
			freq = m
			return
		}
		for k, n := range m {
			freq[k] += n
		}
	})
	// Rank r's prefix goes to heads[off[r]:off[r+1]], room for budget
	// distinct tokens; slots it leaves unused keep count 0.
	budget := int32(cmul*tau + 1)
	off := make([]int, len(order)+1)
	for r, ti := range order {
		off[r+1] = off[r] + min(int(budget), len(x.bags[ti].toks))
	}
	heads := make([]tokenCount, off[len(order)])
	forRuns(len(order), workers, func(lo, hi int) {
		var scratch []scratchTok
		for r := lo; r < hi; r++ {
			b := x.bags[order[r]]
			scratch = scratch[:0]
			for _, tc := range b.toks {
				scratch = append(scratch, scratchTok{freq: freq[tc.key], key: tc.key, count: tc.count})
			}
			// The prefix spends at most budget expanded elements, so at most
			// budget distinct tokens matter: quickselect them to the front,
			// then sort only that head instead of the whole bag.
			head := scratch
			if int(budget) < len(scratch) {
				selectSmallest(scratch, int(budget))
				head = scratch[:budget]
			}
			slices.SortFunc(head, func(a, b scratchTok) int {
				if tokLess(a, b) {
					return -1
				}
				if tokLess(b, a) {
					return 1
				}
				return 0
			})
			var taken int32
			for k, pt := range head {
				if taken >= budget {
					break
				}
				cnt := min(pt.count, budget-taken)
				heads[off[r]+k] = tokenCount{key: pt.key, count: cnt}
				taken += cnt
			}
			x.plen[order[r]] = taken
		}
	})
	for r, ti := range order {
		side := &x.sides[0]
		if split >= 0 && ti >= split {
			side = &x.sides[1]
		}
		if side.post == nil {
			side.post = make(map[uint64][]posting, 1<<10)
		}
		// Every tree's prefix is indexed (a light tree may still be found
		// through it by a heavier probe); light trees join the side list too.
		for _, tc := range heads[off[r]:off[r+1]] {
			if tc.count == 0 {
				break
			}
			side.post[tc.key] = append(side.post[tc.key], posting{rank: int32(r), count: tc.count})
		}
		if x.bags[ti].total <= x.ctau {
			side.light = append(side.light, int32(r))
		}
	}
	x.built = time.Since(start)
	return x
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
	// counts and the ranks touched by the current probe.
	base := int32(c.WindowStart(c.Trees[c.Order[lo]].Size()))
	n := hi - int(base)
	scratch := make([]int32, 2*n)
	cnt, touched := scratch[:n], scratch[n:n]
	for r := lo; r < hi && !px.Cancelled(); r++ {
		ti, me := c.Order[r], int32(r)
		side := &x.sides[0]
		if c.Cross() && ti < c.Split {
			side = &x.sides[1]
		}
		from := int32(c.WindowStart(c.Trees[ti].Size())) // first rank inside the size window
		la := x.bags[ti].total
		if la <= ctau {
			// Light probe: a qualifying partner may share nothing, but every
			// size-window partner before it is light too (bags are
			// size-monotone), so the side list is exhaustive.
			k, _ := slices.BinarySearch(side.light, from)
			for ; k < len(side.light) && side.light[k] < me; k++ {
				px.Offer(ti, c.Order[side.light[k]])
			}
			continue
		}
		// Indexed probe: walk the posting lists of the probe's whole bag over
		// the window below it, adding each partner's shared tokens into its
		// count cell. The probe walks its full bag — not just its own prefix —
		// because only the asymmetric form gives the count threshold teeth: a
		// qualifying pair overlaps in ≥ |A| − Cτ elements, of which at most
		// |B| − p_B fall outside B's indexed prefix, so B must collect
		// |A| − Cτ − (|B| − p_B) hits from A's lists. Only globally rare
		// tokens have posting lists at all, so most of the bag's lookups miss
		// for free.
		for _, tc := range x.bags[ti].toks {
			list := side.post[tc.key]
			k, _ := slices.BinarySearchFunc(list, from, func(p posting, rank int32) int { return int(p.rank - rank) })
			for ; k < len(list) && list[k].rank < me; k++ {
				s := list[k].rank - base
				if cnt[s] == 0 {
					touched = append(touched, s)
				}
				cnt[s] += min(tc.count, list[k].count)
				stats.PostingsScanned++
			}
		}
		// Offer in rank order, as the sorted loop would, zeroing each cell
		// for the next probe. Count threshold: for same-bag-size partners it
		// is the prefix theorem's ≥ 1; it climbs with the bag-size gap, so
		// partners at the small end of the size window need the most shared
		// tokens.
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
	stats.CandTime += time.Since(start)
}

// tokLess is the global total order on tokens: ascending frequency, ties by
// key.
func tokLess(a, b scratchTok) bool {
	if a.freq != b.freq {
		return a.freq < b.freq
	}
	return a.key < b.key
}

// selectSmallest partitions s so that its k smallest entries under the
// global order occupy s[:k], in no particular order (median-of-three
// quickselect; k < len(s)).
func selectSmallest(s []scratchTok, k int) {
	lo, hi := 0, len(s)-1
	for lo < hi {
		// Median-of-three pivot guards against sorted inputs.
		mid := lo + (hi-lo)/2
		if tokLess(s[mid], s[lo]) {
			s[lo], s[mid] = s[mid], s[lo]
		}
		if tokLess(s[hi], s[lo]) {
			s[lo], s[hi] = s[hi], s[lo]
		}
		if tokLess(s[hi], s[mid]) {
			s[mid], s[hi] = s[hi], s[mid]
		}
		pivot := s[mid]
		i, j := lo, hi
		for i <= j {
			for tokLess(s[i], pivot) {
				i++
			}
			for tokLess(pivot, s[j]) {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k > i:
			lo = i
		default:
			return
		}
	}
}

package core

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sort"

	"treejoin/internal/engine"
	"treejoin/internal/lcrs"
)

// The subgraph index (§3.4), layered twig-first. The paper narrows a probe by
// tree size (the inverted lists I_n of Algorithm 1), then by postorder
// position, then by the label twig at the subgraph root. This index holds the
// same entries and applies the same three tests in the opposite order: one
// flat table maps a twig to its postings {size, pos, tree, comp}, each list
// kept sorted by (size, pos, tree). A probe node looks up its ≤4 compatible
// twigs — the only hash lookups it pays — binary-searches each list to the
// first admissible size and scans to the last, applying the position window to
// each posting. The size → position → twig order costs (τ+1) sizes × (τ+1)
// positions × 4 twigs lookups per node, nearly all of them misses, because
// the twig is by far the most selective of the three keys; asking it first
// means a probe touches only lists that can hold a partner (the ordering
// argument of filter-and-verification trees). Position windows are therefore
// a per-posting comparison rather than a bucket address. The twig a subgraph
// is filed under also carries the slot occupancy of each root child it
// descends into (indexKey), which a match needs and the probe node's own
// children supply, so a probe visits the paper's entries less those whose
// match would fail at a root child's slots, and finds the same matches.
//
// # Position keys — corrections to the paper
//
// The paper keys subgraph s_k by its root's postorder identifier p_k and
// argues the identifier shifts by at most ∆ positions under ∆ edit
// operations. Property-testing against the brute-force oracle forced two
// corrections (see DESIGN.md, "Reproduction notes"):
//
//  1. The postorder must be the *general* tree's, not the binary tree's. A
//     single general-tree deletion splices a sibling chain, which rewires
//     binary ancestry and can move whole regions across the binary
//     postorder — the binary position of an untouched subgraph may shift
//     arbitrarily. The general postorder of surviving nodes, by contrast, is
//     preserved verbatim by every node edit operation (delete removes one
//     element of the sequence, insert adds one, rename changes none), so
//     positions shift by at most one per operation. The paper's Figure 7
//     position numbers are general-postorder numbers.
//
//  2. The position must be measured from the *end* of the postorder,
//     r = |T| − p: an edit before an untouched subgraph changes p but not
//     r, and the two trees of a candidate pair may differ in size. Measuring
//     from the end is also what the paper's own |N_k| argument bounds.
//
// With both corrections the index stores each subgraph once, at its exact
// reverse position r_k, and the probe admits the window r_k could have moved
// to. Let the candidate pair's sizes differ by d = |probe| − |pattern| and
// let the mapping use I inserts and D deletes; then I − D = d and I + D ≤ τ,
// so I ≤ ⌊(τ+d)/2⌋ and D ≤ ⌊(τ−d)/2⌋. An untouched subgraph whose root
// maps to probe node N satisfies r(N) − r_k ∈ [−D, +I], hence
//
//	r_k ∈ [r(N) − ⌊(τ+d)/2⌋, r(N) + ⌊(τ−d)/2⌋],
//
// a window of τ+1 positions (versus 2τ+1 for the naive ±τ), valid for any
// δ-partitioning.
//
// The paper instead tightens per subgraph rank k, storing each subgraph under
// the range r_k ± ∆′(k), ∆′(k) = τ − ⌊k/2⌋, and probing a point. Its argument
// assumes an edit operation cannot both invalidate an earlier subgraph's
// match and shift a later subgraph's position, which fails for
// boundary-straddling operations (e.g. deleting a node whose spliced children
// sit in an earlier component), so the rule can miss results and is not
// used here.

// Label twig keys (§3.4, "Label indexing"). The key of a subgraph is the
// label of its root plus one marker per slot: the child's label when the
// child is in-component, slotBridge when the slot is a bridging edge, and
// slotEmpty when the slot is empty. (The paper folds bridge and empty into
// one ε marker; distinguishing them is a strict refinement — an empty slot
// can only match an empty slot — that preserves the probe-key count.) An
// index key refines it once more with occ (see indexKey).
const (
	slotBridge int32 = -1
	slotEmpty  int32 = -2
)

type twig struct {
	root, left, right int32
	occ               uint8 // index keys only: the descended children's slot occupancy
}

// twigTable maps a twig to its list id: open addressing with linear probing
// over a power-of-two slot array kept at most half full. A probe node pays its
// ≤4 lookups here, the hottest line of a join, so the table is flat — one
// multiply-mix of the 13-byte key and a short scan of adjacent 20-byte slots —
// rather than a generic hash map.
type twigTable struct {
	slots []twigSlot
	shift uint // 64 − log2(len(slots))
	n     int  // keys held; list ids are 0..n−1 in arrival order
}

type twigSlot struct {
	key  twig
	list int32 // list id + 1; 0 marks an empty slot
}

func (t *twigTable) home(k twig) int {
	h := (uint64(uint32(k.root))<<32 | uint64(uint32(k.left))) * 0x9E3779B97F4A7C15
	h = (h ^ h>>32 ^ uint64(uint32(k.right)) ^ uint64(k.occ)<<32) * 0xC2B2AE3D27D4EB4F
	return int(h >> t.shift)
}

// get returns the list id of k, or −1.
func (t *twigTable) get(k twig) int32 {
	if t.n == 0 {
		return -1
	}
	for i := t.home(k); ; i = (i + 1) & (len(t.slots) - 1) {
		if s := &t.slots[i]; s.list == 0 || s.key == k {
			return s.list - 1
		}
	}
}

// list returns the list id of k, giving a new key the next id.
func (t *twigTable) list(k twig) int32 {
	if 2*(t.n+1) > len(t.slots) {
		old := t.slots
		t.slots = make([]twigSlot, max(2*len(old), 16))
		t.shift = uint(64 - bits.Len(uint(len(t.slots)-1)))
		for _, s := range old {
			if s.list != 0 {
				i := t.home(s.key)
				for t.slots[i].list != 0 {
					i = (i + 1) & (len(t.slots) - 1)
				}
				t.slots[i] = s
			}
		}
	}
	for i := t.home(k); ; i = (i + 1) & (len(t.slots) - 1) {
		s := &t.slots[i]
		if s.list == 0 {
			t.n++
			*s = twigSlot{key: k, list: int32(t.n)}
		}
		if s.key == k {
			return s.list - 1
		}
	}
}

// posting is one index entry: a subgraph (component comp of tree's
// partition) filed under its tree's size and its root's reverse position,
// with the offset of its match program in the index's arena.
type posting struct {
	size, pos  int32
	tree, comp int32
	prog       int32
}

// comparePostings orders postings by (size, pos, tree, comp): a total order,
// so a list has one sorted form whichever runs or parts it was put together
// from.
func comparePostings(a, b posting) int {
	switch {
	case a.size != b.size:
		return cmp.Compare(a.size, b.size)
	case a.pos != b.pos:
		return cmp.Compare(a.pos, b.pos)
	case a.tree != b.tree:
		return cmp.Compare(a.tree, b.tree)
	}
	return cmp.Compare(a.comp, b.comp)
}

// invIndex is the subgraph index. Reads (probe, matches) touch no mutable
// state, so a fully built index is safe for concurrent use — the joins, Search
// and KNN all probe one frozen instance; only Incremental keeps inserting.
type invIndex struct {
	tau   int
	lists twigTable   // twig -> position of its list in posts
	posts [][]posting // each sorted by comparePostings
	progs []uint32    // match programs, see encode
	n     int64       // postings inserted
	stack []int32     // encode's scratch
}

func newInvIndex(tau int) *invIndex { return &invIndex{tau: tau} }

// buildInvIndex indexes trees 0..n−1 in bulk on up to workers goroutines:
// part(i) yields tree i's partition, or nil for a tree that is not indexed
// (too small, removed). Each worker partitions and compiles a contiguous run
// of trees (engine.ForRuns) into an index of its own and sorts its lists;
// concat then merges the runs into exactly sized storage, since the result is
// retained for as long as its corpus epoch.
func buildInvIndex(tau, n, workers int, part func(i int, st *partitionState) *Partition) *invIndex {
	runs := make([]*invIndex, max(1, min(workers, n)))
	engine.ForRuns(n, len(runs), func(w, lo, hi int) {
		run, st := newInvIndex(tau), new(partitionState)
		for i := lo; i < hi; i++ {
			if p := part(i, st); p != nil {
				run.add(i, p, false)
			}
		}
		for _, ps := range run.posts {
			slices.SortFunc(ps, comparePostings)
		}
		runs[w] = run
	})
	return concat(tau, runs, nil)
}

// concat returns the index holding every posting of runs — the one routine
// that puts postings together, for the worker runs of a build and the parts of
// a Compose alike. Run k's tree t becomes tree at[k][t] (at nil: t itself, a
// worker run numbering trees globally already), its programs move into one
// arena, and each list is merged from the runs' lists, which must be sorted
// and stay so under the renumbering (at[k] ascending). Storage is counted
// before it is filled, so every list and the arena are exactly sized.
func concat(tau int, runs []*invIndex, at [][]int32) *invIndex {
	ix := newInvIndex(tau)
	lists := make([][]int32, len(runs)) // run k's list j is ix's list lists[k][j]
	nprogs := 0
	for k, run := range runs {
		lists[k] = make([]int32, len(run.posts))
		for _, s := range run.lists.slots {
			if s.list != 0 {
				lists[k][s.list-1] = ix.list(s.key)
			}
		}
		ix.n += run.n
		nprogs += len(run.progs)
	}
	counts := make([]int, len(ix.posts))
	for k, run := range runs {
		for j, ps := range run.posts {
			counts[lists[k][j]] += len(ps)
		}
	}
	block, off := make([]posting, ix.n), 0
	for li, c := range counts {
		ix.posts[li] = block[off : off : off+c]
		off += c
	}
	ix.progs = make([]uint32, 0, nprogs)
	for k, run := range runs {
		base := int32(len(ix.progs))
		ix.progs = append(ix.progs, run.progs...)
		for j, ps := range run.posts {
			li := lists[k][j]
			for _, e := range ps {
				if at != nil {
					e.tree = at[k][e.tree]
				}
				e.prog += base
				ix.posts[li] = append(ix.posts[li], e)
			}
		}
	}
	var tmp []posting
	for _, ps := range ix.posts {
		tmp = mergeRuns(ps, tmp)
	}
	return ix
}

// mergeRuns sorts ps, a concatenation of sorted runs, by merging neighbouring
// runs pairwise until one is left; tmp is scratch, returned for reuse.
func mergeRuns(ps, tmp []posting) []posting {
	for runEnd(ps, 0) < len(ps) {
		tmp = tmp[:0]
		for i := 0; i < len(ps); {
			j := runEnd(ps, i)
			k := j
			if j < len(ps) {
				k = runEnd(ps, j)
			}
			a, b := ps[i:j], ps[j:k]
			for len(a) > 0 && len(b) > 0 {
				if comparePostings(b[0], a[0]) < 0 {
					tmp, b = append(tmp, b[0]), b[1:]
				} else {
					tmp, a = append(tmp, a[0]), a[1:]
				}
			}
			tmp = append(append(tmp, a...), b...)
			i = k
		}
		copy(ps, tmp)
	}
	return tmp
}

// runEnd returns the end of the sorted run of ps that starts at i.
func runEnd(ps []posting, i int) int {
	for i++; i < len(ps) && comparePostings(ps[i-1], ps[i]) <= 0; i++ {
	}
	return i
}

// list returns the position in posts of tw's list, creating it if needed.
func (ix *invIndex) list(tw twig) int32 {
	li := ix.lists.list(tw)
	if int(li) == len(ix.posts) {
		ix.posts = append(ix.posts, nil)
	}
	return li
}

// nodeTwig computes the label twig of node v of component c, occ left 0:
// encode, which calls it for every node, needs only the slot kinds.
func nodeTwig(p *Partition, c, v int32) twig {
	b := p.Bin
	return twig{root: b.Label(v), left: slotKey(p, c, b.Left(v)), right: slotKey(p, c, b.Right(v))}
}

// indexKey is the key component c is filed under: its root's twig plus, for
// each slot that descends, the child's slot occupancy. A match needs it: the
// child's word accepts a probe child only if every empty slot of the pattern
// child is empty there and every bridge or descend slot filled, so the probe
// child's occupancy, which probeKeys puts in the key, must be the same.
func indexKey(p *Partition, c int32) twig {
	b, v := p.Bin, p.Roots[c]
	tw := nodeTwig(p, c, v)
	if tw.left >= 0 {
		tw.occ = occupancy(b, b.Left(v)) << 2
	}
	if tw.right >= 0 {
		tw.occ |= occupancy(b, b.Right(v))
	}
	return tw
}

// occupancy packs whether node v's left and right slots hold a child.
func occupancy(b *lcrs.Bin, v int32) (o uint8) {
	if b.Left(v) != lcrs.None {
		o = 2
	}
	if b.Right(v) != lcrs.None {
		o |= 1
	}
	return o
}

func slotKey(p *Partition, c int32, child int32) int32 {
	switch {
	case child == lcrs.None:
		return slotEmpty
	case p.Comp[child] != c:
		return slotBridge
	default:
		return p.Bin.Label(child)
	}
}

// insert adds every subgraph of p (a partition of tree treeIdx) to the
// index, keeping each touched list sorted: Incremental's arrival-order
// inserts pay a binary search and a shift.
func (ix *invIndex) insert(treeIdx int, p *Partition) { ix.add(treeIdx, p, true) }

func (ix *invIndex) add(treeIdx int, p *Partition, sorted bool) {
	size := int32(p.Bin.Size())
	for c := int32(0); c < int32(p.Delta); c++ {
		e := posting{size: size, pos: size - 1 - p.Bin.GenRank[p.Roots[c]], tree: int32(treeIdx), comp: c, prog: ix.encode(p, c)}
		li := ix.list(indexKey(p, c))
		ps := ix.posts[li]
		at := len(ps)
		if sorted && at > 0 && comparePostings(e, ps[at-1]) < 0 {
			at = sort.Search(at, func(i int) bool { return comparePostings(e, ps[i]) < 0 })
		}
		ix.posts[li] = slices.Insert(ps, at, e)
	}
	ix.n += int64(p.Delta)
}

// probeKeys materialises the ≤4 index keys compatible with probe node n: each
// present child may match either a same-label in-component child of its own
// slot occupancy or a bridging slot; an absent child matches only an empty
// slot.
func probeKeys(b *lcrs.Bin, n int32, keys *[4]twig) int {
	var lopts, ropts [2]int32
	var locc, rocc [2]uint8 // a descend option's occupancy bits; 0 for the others
	nl, nr := 1, 1
	if l := b.Left(n); l != lcrs.None {
		lopts, locc = [2]int32{b.Label(l), slotBridge}, [2]uint8{occupancy(b, l) << 2}
		nl = 2
	} else {
		lopts[0] = slotEmpty
	}
	if r := b.Right(n); r != lcrs.None {
		ropts, rocc = [2]int32{b.Label(r), slotBridge}, [2]uint8{occupancy(b, r)}
		nr = 2
	} else {
		ropts[0] = slotEmpty
	}
	lab := b.Label(n)
	k := 0
	for i := 0; i < nl; i++ {
		for j := 0; j < nr; j++ {
			keys[k] = twig{root: lab, left: lopts[i], right: ropts[j], occ: locc[i] | rocc[j]}
			k++
		}
	}
	return k
}

// noTieLimit is the tie of the partners callers that admit every tree of
// the largest size (cross joins, Search, Incremental).
const noTieLimit = math.MaxInt32

// probe visits the index entries that are twig- and position-compatible with
// node n of probe tree b, for every indexed tree size in [minSize, maxSize];
// of the trees of exactly maxSize, only those numbered below tieBelow (see
// Index.partners). The position test is the size-difference-aware window
// around n's reverse position (see the top of the file). It reports the
// number of entries visited.
func (ix *invIndex) probe(b *lcrs.Bin, n int32, minSize, maxSize int, tieBelow int32, visit func(posting)) int64 {
	var keys [4]twig
	nk := probeKeys(b, n, &keys)
	psize := int32(b.Size())
	r := psize - 1 - b.GenRank[n]
	var visited int64
	for k := 0; k < nk; k++ {
		li := ix.lists.get(keys[k])
		if li < 0 {
			continue
		}
		ps := ix.posts[li]
		i, end := 0, len(ps) // bisect to the first posting of an admissible size
		for i < end {
			if m := int(uint(i+end) >> 1); int(ps[m].size) < minSize {
				i = m + 1
			} else {
				end = m
			}
		}
		for i < len(ps) && int(ps[i].size) <= maxSize {
			size, below := ps[i].size, int32(noTieLimit)
			if int(size) == maxSize {
				below = tieBelow
			}
			d := int(psize - size) // probe minus pattern size
			lo, hi := r-int32((ix.tau+d)/2), r+int32((ix.tau-d)/2)
			for ; i < len(ps) && ps[i].size == size; i++ {
				if e := &ps[i]; e.pos >= lo && e.pos <= hi && e.tree < below {
					visited++
					visit(*e)
				}
			}
		}
	}
	return visited
}

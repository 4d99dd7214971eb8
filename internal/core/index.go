package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"treejoin/internal/lcrs"
)

// The subgraph index (§3.4), layered twig-first. The paper narrows a probe by
// tree size (the inverted lists I_n of Algorithm 1), then by postorder
// position, then by the label twig at the subgraph root. This index holds the
// same entries and applies the same three tests in the opposite order: one
// flat table maps a twig to its postings {size, pos, tree, comp}, each list
// kept sorted by (size, pos). A probe node looks up its ≤4 compatible twigs
// — the only hash lookups it pays — binary-searches each list to the first
// admissible size and scans to the last, applying the position window to each
// posting. The size → position → twig order costs (τ+1) sizes × (τ+1)
// positions × 4 twigs lookups per node, nearly all of them misses, because
// the twig is by far the most selective of the three keys; asking it first
// means a probe touches only lists that can hold a partner (the ordering
// argument of filter-and-verification trees). Position windows are therefore
// a per-posting comparison rather than a bucket address. The set of entries a
// probe visits is unchanged; only the order it visits them in differs.
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
// With both corrections the sound default (PositionSafe) stores each
// subgraph once, at its exact reverse position r_k, and the probe admits
// the window r_k could have moved to. Let the candidate pair's sizes differ
// by d = |probe| − |pattern| and let the mapping use I inserts and D
// deletes; then I − D = d and I + D ≤ τ, so I ≤ ⌊(τ+d)/2⌋ and
// D ≤ ⌊(τ−d)/2⌋. An untouched subgraph whose root maps to probe node N
// satisfies r(N) − r_k ∈ [−D, +I], hence
//
//	r_k ∈ [r(N) − ⌊(τ+d)/2⌋, r(N) + ⌊(τ−d)/2⌋],
//
// a window of τ+1 positions (versus 2τ+1 for the naive ±τ), valid for any
// δ-partitioning.
//
// The paper instead tightens per subgraph rank k, using ∆′(k) = τ − ⌊k/2⌋.
// Its argument assumes an edit operation cannot both invalidate an earlier
// subgraph's match and shift a later subgraph's position, which fails for
// boundary-straddling operations (e.g. deleting a node whose spliced
// children sit in an earlier component). PositionPaper implements the
// formula for benchmarking fidelity; the oracle tests accept its output only
// as a subset of the true result.
type PositionFilter int

const (
	// PositionSafe keys every subgraph by its exact reverse general
	// postorder and probes the size-difference-aware window above: the
	// proven-sound default.
	PositionSafe PositionFilter = iota
	// PositionPaper uses the paper's τ − ⌊k/2⌋ ranges (subgraphs ranked by
	// root postorder). Retained for benchmarking fidelity; can miss results
	// in adversarial corner cases.
	PositionPaper
	// PositionOff disables the position test entirely (size and twig only).
	PositionOff
)

func (m PositionFilter) String() string {
	switch m {
	case PositionSafe:
		return "safe"
	case PositionPaper:
		return "paper"
	case PositionOff:
		return "off"
	default:
		return fmt.Sprintf("PositionFilter(%d)", int(m))
	}
}

// Label twig keys (§3.4, "Label indexing"). The key of a subgraph is the
// label of its root plus one marker per slot: the child's label when the
// child is in-component, slotBridge when the slot is a bridging edge, and
// slotEmpty when the slot is empty. (The paper folds bridge and empty into
// one ε marker; distinguishing them is a strict refinement — an empty slot
// can only match an empty slot — that preserves the probe-key count.)
const (
	slotBridge int32 = -1
	slotEmpty  int32 = -2
)

type twig struct{ root, left, right int32 }

// posting is one index entry: a subgraph (component comp of tree's
// partition) filed under its tree's size and a position key, with the offset
// of its match program in the index's arena. PositionPaper files one
// subgraph under a range of positions; the postings share one program.
type posting struct {
	size, pos  int32
	tree, comp int32
	prog       int32
}

// comparePostings orders postings by (size, pos).
func comparePostings(a, b posting) int {
	return cmp.Or(cmp.Compare(a.size, b.size), cmp.Compare(a.pos, b.pos))
}

// invIndex is the on-the-fly index of Algorithm 1. Reads (probe, matches)
// touch no mutable state, so a fully built index is safe for concurrent use.
type invIndex struct {
	tau   int
	mode  PositionFilter
	lists map[twig]int32 // twig -> position of its list in posts
	posts [][]posting    // each sorted by (size, pos), equal keys in insertion order
	progs []twig         // match programs, see encode
	n     int64          // postings inserted
	stack []int32        // encode's scratch
}

// newInvIndex returns an empty index whose match-program arena has room for
// nodes tree nodes (0 when the caller cannot tell; the arena grows).
func newInvIndex(tau int, mode PositionFilter, nodes int) *invIndex {
	return &invIndex{tau: tau, mode: mode, lists: make(map[twig]int32), progs: make([]twig, 0, nodes)}
}

// buildInvIndex indexes every non-nil partition of parts (tree index =
// slice position) in bulk: postings are appended in arrival order and each
// list is sorted once at the end.
func buildInvIndex(tau int, mode PositionFilter, parts []*Partition) *invIndex {
	nodes := 0
	for _, p := range parts {
		if p != nil {
			nodes += p.Bin.Size()
		}
	}
	ix := newInvIndex(tau, mode, nodes)
	for ti, p := range parts {
		if p != nil {
			ix.add(ti, p, false)
		}
	}
	for _, ps := range ix.posts {
		slices.SortStableFunc(ps, comparePostings)
	}
	return ix
}

// nodeTwig computes the label twig of node v of component c; the root's is
// the subgraph's index key.
func nodeTwig(p *Partition, c, v int32) twig {
	b := p.Bin
	return twig{root: b.Label(v), left: slotKey(p, c, b.Left(v)), right: slotKey(p, c, b.Right(v))}
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

// postorderRanks returns, for each component, its 1-based rank k when the
// components are ordered by the general postorder of their roots (the
// s_1..s_δ numbering the paper's ∆′ formula refers to).
func postorderRanks(p *Partition) []int {
	order := make([]int, p.Delta)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return p.Bin.GenRank[p.Roots[order[a]]] < p.Bin.GenRank[p.Roots[order[b]]]
	})
	ranks := make([]int, p.Delta)
	for k, c := range order {
		ranks[c] = k + 1
	}
	return ranks
}

// insert adds every subgraph of p (a partition of tree treeIdx) to the
// index, keeping each touched list sorted. Ascending-size arrival (the join
// loop) appends; any other order pays a binary search and a shift.
func (ix *invIndex) insert(treeIdx int, p *Partition) { ix.add(treeIdx, p, true) }

func (ix *invIndex) add(treeIdx int, p *Partition, sorted bool) {
	size := int32(p.Bin.Size())
	var ranks []int
	if ix.mode == PositionPaper {
		ranks = postorderRanks(p)
	}
	for c := int32(0); c < int32(p.Delta); c++ {
		e := posting{size: size, tree: int32(treeIdx), comp: c, prog: ix.encode(p, c)}
		// PositionSafe stores the exact reverse position and probes a window.
		rk := size - 1 - p.Bin.GenRank[p.Roots[c]]
		lo, hi := rk, rk
		switch ix.mode {
		case PositionOff:
			lo, hi = 0, 0
		case PositionPaper:
			// The paper stores ranges around r_k and probes a point.
			slack := int32(ix.tau - ranks[c]/2)
			lo, hi = max(rk-slack, 0), rk+slack
		}
		tw := ix.progs[e.prog] // a program starts with its root's twig
		li, ok := ix.lists[tw]
		if !ok {
			li = int32(len(ix.posts))
			ix.lists[tw] = li
			ix.posts = append(ix.posts, nil)
		}
		ps := ix.posts[li]
		for e.pos = lo; e.pos <= hi; e.pos++ {
			at := len(ps)
			if sorted && at > 0 && comparePostings(e, ps[at-1]) < 0 {
				at = sort.Search(at, func(i int) bool { return comparePostings(e, ps[i]) < 0 })
			}
			ps = slices.Insert(ps, at, e)
		}
		ix.posts[li] = ps
		ix.n += int64(hi - lo + 1)
	}
}

// probeKeys materialises the ≤4 twig keys compatible with probe node n: each
// present child may match either a same-label in-component child or a
// bridging slot; an absent child matches only an empty slot.
func probeKeys(b *lcrs.Bin, n int32, keys *[4]twig) int {
	var lopts, ropts [2]int32
	nl, nr := 1, 1
	if l := b.Left(n); l != lcrs.None {
		lopts[0], lopts[1] = b.Label(l), slotBridge
		nl = 2
	} else {
		lopts[0] = slotEmpty
	}
	if r := b.Right(n); r != lcrs.None {
		ropts[0], ropts[1] = b.Label(r), slotBridge
		nr = 2
	} else {
		ropts[0] = slotEmpty
	}
	lab := b.Label(n)
	k := 0
	for i := 0; i < nl; i++ {
		for j := 0; j < nr; j++ {
			keys[k] = twig{root: lab, left: lopts[i], right: ropts[j]}
			k++
		}
	}
	return k
}

// probe visits the index entries that are twig- and position-compatible with
// node n of probe tree b, for every indexed tree size in [minSize, maxSize].
// It reports the number of entries visited.
func (ix *invIndex) probe(b *lcrs.Bin, n int32, minSize, maxSize int, visit func(posting)) int64 {
	var keys [4]twig
	nk := probeKeys(b, n, &keys)
	psize := int32(b.Size())
	r := psize - 1 - b.GenRank[n]
	lo, hi := r, r // PositionPaper: ranges live on the store side
	if ix.mode == PositionOff {
		lo, hi = 0, 0
	}
	var visited int64
	for k := 0; k < nk; k++ {
		li, ok := ix.lists[keys[k]]
		if !ok {
			continue
		}
		ps := ix.posts[li]
		// First posting of an admissible size: gallop back from the tail,
		// where the join's ascending-size probes always land, then bisect.
		i, end, step := len(ps), len(ps), 1
		for i > 0 && int(ps[i-1].size) >= minSize {
			i, end, step = max(i-step, 0), i-1, step*2
		}
		for i < end {
			if m := int(uint(i+end) >> 1); int(ps[m].size) < minSize {
				i = m + 1
			} else {
				end = m
			}
		}
		for i < len(ps) && int(ps[i].size) <= maxSize {
			size := ps[i].size
			if ix.mode == PositionSafe { // size-difference-aware window around r
				d := int(psize - size) // probe minus pattern size
				lo, hi = r-int32((ix.tau+d)/2), r+int32((ix.tau-d)/2)
			}
			for ; i < len(ps) && ps[i].size == size; i++ {
				if pos := ps[i].pos; pos >= lo && pos <= hi {
					visited++
					visit(ps[i])
				}
			}
		}
	}
	return visited
}

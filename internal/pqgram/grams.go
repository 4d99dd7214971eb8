package pqgram

import (
	"fmt"
	"slices"

	"treejoin/internal/engine"
	"treejoin/internal/tree"
)

// The exact-join cousin of the pq-gram profile. The pq-gram distance itself
// is *not* a TED lower bound (see the package comment), so it cannot prune
// pairs in an exact join. Applying the same machinery — bag of fixed-shape
// local fingerprints, sorted-merge intersection — to q-grams of the tree's
// Euler tour instead yields a provable bound:
//
//   - each node edit operation changes at most 2 symbols of the Euler string
//     (a node's open/close symbols bracket its subtree's contiguous tour
//     substring, so delete removes exactly those 2 symbols, insert adds 2,
//     rename substitutes 2 — the EUL baseline's observation);
//   - each symbol edit changes at most q q-grams on either side: at most q
//     windows contain the edited position before the edit and at most q
//     after, so the bag symmetric difference moves by at most 2q;
//   - the bag symmetric difference is a metric (L1 on gram-count vectors),
//     so the changes add up along an optimal edit script.
//
// Hence |G_q(T1) △ G_q(T2)| ≤ 4q·TED(T1, T2), and a pair may be pruned when
// its gram-bag distance exceeds 4qτ; see DESIGN.md for the full derivation.
// Like the pq-gram profile, grams are reduced to 64-bit fingerprints — a
// fingerprint collision can only enlarge the measured intersection, i.e.
// shrink the measured distance, so collisions keep pairs rather than losing
// them and the filter stays sound.

// DefaultQ is the Euler-gram window width used by the public MethodPQGram
// join: wide enough to see local structure, narrow enough that the 4q·TED
// slack still prunes at small τ.
const DefaultQ = 3

// GramProfile is the sorted bag of a tree's Euler-tour q-grams, each reduced
// to a 64-bit fingerprint.
type GramProfile struct {
	Q      int
	Hashes []uint64
}

// Len returns the bag size: max(0, 2·|T| − q + 1) windows.
func (g *GramProfile) Len() int { return len(g.Hashes) }

// NewGrams computes the Euler-tour q-gram profile of t for window width
// q ≥ 1. Open and close symbols of equal labels stay distinct (label L maps
// to 2L descending and 2L+1 ascending, as in the EUL baseline).
func NewGrams(t *tree.Tree, q int) *GramProfile {
	if q < 1 {
		panic(fmt.Sprintf("pqgram: invalid gram width q=%d", q))
	}
	g := &GramProfile{Q: q, Hashes: gramHashes(t, q)}
	slices.Sort(g.Hashes)
	return g
}

// gramHashes returns the fingerprints of t's Euler-tour q-gram windows, in
// tour order: the shared tokenisation behind both the sorted GramProfile and
// the engine's token index.
func gramHashes(t *tree.Tree, q int) []uint64 {
	euler := tree.EulerString(t)
	if len(euler) < q {
		return nil
	}
	out := make([]uint64, len(euler)-q+1)
	for w := range out {
		h := offset64
		for _, v := range euler[w : w+q] {
			h = fnvMix(h, v)
		}
		out[w] = h
	}
	return out
}

// FNV-1a over the 4 little-endian bytes of each symbol, inlined to keep the
// per-window cost at a handful of arithmetic ops.
const (
	offset64 uint64 = 14695981039346656037
	prime64  uint64 = 1099511628211
)

func fnvMix(h uint64, v int32) uint64 {
	u := uint32(v)
	h = (h ^ uint64(u&0xff)) * prime64
	h = (h ^ uint64((u>>8)&0xff)) * prime64
	h = (h ^ uint64((u>>16)&0xff)) * prime64
	h = (h ^ uint64((u>>24)&0xff)) * prime64
	return h
}

// GramBagDistance returns the bag symmetric difference |G1| + |G2| − 2|G1∩G2|
// of two gram profiles (which must share q).
func GramBagDistance(a, b *GramProfile) int {
	if a.Q != b.Q {
		panic("pqgram: gram profiles with different widths")
	}
	i, j, common := 0, 0, 0
	for i < len(a.Hashes) && j < len(b.Hashes) {
		switch {
		case a.Hashes[i] == b.Hashes[j]:
			common++
			i++
			j++
		case a.Hashes[i] < b.Hashes[j]:
			i++
		default:
			j++
		}
	}
	return len(a.Hashes) + len(b.Hashes) - 2*common
}

// GramLowerBound returns the Euler-gram TED lower bound ⌈bag/(4q)⌉.
func GramLowerBound(a, b *GramProfile) int {
	return (GramBagDistance(a, b) + 4*a.Q - 1) / (4 * a.Q)
}

// Tokenizer returns the Euler-tour q-gram tokenisation as an
// engine.Tokenizer for the token inverted-index candidate source: the token
// multiset is the same gram fingerprint bag NewGrams profiles, and the bag
// bound is the same |G_q(T1) △ G_q(T2)| ≤ 4q·TED(T1, T2) the filter rests
// on, so Slack() = 4q. q ≤ 0 selects DefaultQ. A fingerprint collision
// merges two gram bins, which can only increase measured overlaps — pairs
// are kept, not lost, so index pruning stays sound. Bag size is 2·|T| − q + 1
// (clamped at 0), monotone in tree size as the source requires. Unlike
// NewGrams the tokens come back unsorted (in tour order): the index
// normalises bags with its own sort, so sorting here would be done twice.
func Tokenizer(q int) engine.Tokenizer {
	if q <= 0 {
		q = DefaultQ
	}
	return engine.NewTokenizer(fmt.Sprintf("euler-grams/q=%d", q), 4*q, func(t *tree.Tree) []uint64 {
		return gramHashes(t, q)
	})
}

// Filter returns the Euler-gram lower bound as an engine pipeline stage:
// pairs whose gram-bag distance exceeds 4qτ are pruned. q ≤ 0 selects
// DefaultQ. This is the filter behind the public MethodPQGram and
// PrefilterPQGram; the pq-gram distance itself (Distance) is no such bound,
// so it filters no join.
func Filter(q int) engine.PairFilter {
	if q <= 0 {
		q = DefaultQ
	}
	return engine.NewFilter("PQG", func(c *engine.Collection) func(i, j int) bool {
		// Gram bags depend on q but not on τ; the cache key records q so
		// differently-parameterised filters never alias.
		key := fmt.Sprintf("pqg/grams/q=%d", q)
		profiles := engine.Cached(c.Cache(), key, c.Trees, c.Workers, func(t *tree.Tree) *GramProfile {
			return NewGrams(t, q)
		})
		limit := 4 * q * c.Tau
		return func(i, j int) bool {
			return GramBagDistance(profiles[i], profiles[j]) <= limit
		}
	})
}

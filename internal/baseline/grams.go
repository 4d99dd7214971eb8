package baseline

import (
	"fmt"

	"treejoin/internal/engine"
	"treejoin/internal/tree"
)

// The PQG baseline: a bag of q-grams of the tree's Euler tour. A node edit
// changes at most 2 tour symbols, each symbol edit at most 2q grams, and the
// bag symmetric difference is a metric, so
// |G_q(T1) △ G_q(T2)| ≤ 4q·TED(T1, T2) (DESIGN.md, "The Euler-gram bound").
// Grams are reduced to 64-bit fingerprints; a collision can only enlarge a
// measured intersection, so it keeps pairs rather than losing them.

// gramQ is the Euler-gram window width: wide enough to see local structure,
// narrow enough that the 4q·TED slack still prunes at small τ.
const gramQ = 3

// appendGrams appends the fingerprints of t's Euler-tour q-gram windows to
// dst, in tour order: the tokenisation behind both the filter and the
// engine's token index. The tour is written into dst itself and each window
// hashed in place over its first symbol, which no later window reads, so no
// separate Euler string is built.
func appendGrams(dst []uint64, t *tree.Tree, q int) []uint64 {
	base := len(dst)
	dst = tree.AppendEuler(dst, t)
	tour := dst[base:]
	if len(tour) < q {
		return dst[:base]
	}
	for w := range len(tour) - q + 1 {
		h := offset64
		for _, v := range tour[w : w+q] {
			h = fnvMix(h, int32(v))
		}
		tour[w] = h
	}
	return dst[:len(dst)-q+1]
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

// EulerGramTokenizer returns the Euler-tour q-gram tokenisation (q = gramQ)
// as an engine.Tokenizer, the token multiset behind PQGFilter and the token
// inverted-index source of the STR, EUL and PQG methods: its bag bound is
// |G_q(T1) △ G_q(T2)| ≤ 4q·TED(T1, T2), so Slack() = 4q. A fingerprint
// collision merges two gram bins, which can only increase measured overlaps
// — pairs are kept, not lost, so pruning stays sound. Bag size is
// 2·|T| − q + 1 (clamped at 0), monotone in tree size as the source requires.
// The grams are appended in tour order, into the build's reused buffer; the
// engine radix-sorts them into the one cached bag both the filter and the
// index read.
func EulerGramTokenizer() engine.Tokenizer {
	return engine.NewTokenizer(fmt.Sprintf("euler-grams/q=%d", gramQ), 4*gramQ, func(dst []uint64, t *tree.Tree) []uint64 {
		return appendGrams(dst, t, gramQ)
	})
}

// PQGFilter returns the Euler-gram lower bound as an engine pipeline stage:
// pairs whose gram-bag distance exceeds 4qτ are pruned. This is the filter
// behind the public MethodPQGram and PrefilterPQGram. It is
// EulerGramTokenizer's bag bound, so a token index over the grams decides it
// inside its probe.
func PQGFilter() engine.PairFilter {
	return engine.BagFilter("PQG", EulerGramTokenizer())
}

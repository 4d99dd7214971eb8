// Package pqgram implements the pq-gram distance of Augsten, Böhlen and
// Gamper — the alternative tree similarity measure the paper discusses in
// its related work (§5) and names as a target of its "other tree distance
// metrics" future-work direction.
//
// A pq-gram of a tree is a small fixed-shape subtree: a *stem* of p nodes
// (a node and p−1 of its ancestors) and a *base* of q consecutive children
// of the stem's bottom node, with missing positions padded by a dummy label.
// The pq-gram profile is the bag of all pq-grams; two trees are similar when
// their profiles overlap heavily. Unlike the traversal-string and binary
// branch measures, the pq-gram distance is *not* a TED lower bound — it is
// an approximation, cheap to compute (linear time) and robust in practice,
// so it complements rather than replaces the join's exact filters.
package pqgram

import (
	"fmt"
	"hash/fnv"
	"sort"

	"treejoin/internal/tree"
)

// Dummy is the label id used for padding positions ("*" in the original
// paper). It cannot collide with interned labels, which are non-negative.
const Dummy int32 = -1

// Profile is the sorted bag of a tree's pq-grams, each reduced to a 64-bit
// fingerprint of its label tuple. Sorting makes bag intersection a linear
// merge.
type Profile struct {
	P, Q   int
	Hashes []uint64
}

// Len returns the bag size: one pq-gram per (node, child-window) position.
func (pr *Profile) Len() int { return len(pr.Hashes) }

// New computes the pq-gram profile of t for stem length p ≥ 1 and base
// width q ≥ 1.
func New(t *tree.Tree, p, q int) *Profile {
	if p < 1 || q < 1 {
		panic(fmt.Sprintf("pqgram: invalid shape p=%d q=%d", p, q))
	}
	pr := &Profile{P: p, Q: q}
	// stem[0..p-1]: the labels of the p ancestors ending at the current
	// node, Dummy-padded at the top. An explicit stack keeps the walk safe
	// on pathologically deep trees.
	rootStem := make([]int32, p)
	for i := range rootStem {
		rootStem[i] = Dummy
	}
	type frame struct {
		node int32
		stem []int32 // the stem of the node's parent context
	}
	stack := []frame{{t.Root(), rootStem}}
	base := make([]int32, 0, 16)
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		stem := append(append(make([]int32, 0, p), f.stem[1:]...), t.Nodes[f.node].Label)
		// Build the padded child label window list.
		base = base[:0]
		for i := 0; i < q-1; i++ {
			base = append(base, Dummy)
		}
		nc := 0
		for c := t.Nodes[f.node].FirstChild; c != tree.None; c = t.Nodes[c].NextSibling {
			base = append(base, t.Nodes[c].Label)
			nc++
		}
		if nc == 0 {
			// A leaf contributes exactly one pq-gram with an all-dummy base.
			base = base[:0]
			for i := 0; i < q; i++ {
				base = append(base, Dummy)
			}
		} else {
			for i := 0; i < q-1; i++ {
				base = append(base, Dummy)
			}
		}
		for w := 0; w+q <= len(base); w++ {
			pr.Hashes = append(pr.Hashes, fingerprint(stem, base[w:w+q]))
		}
		for c := t.Nodes[f.node].FirstChild; c != tree.None; c = t.Nodes[c].NextSibling {
			stack = append(stack, frame{c, stem})
		}
	}
	sort.Slice(pr.Hashes, func(i, j int) bool { return pr.Hashes[i] < pr.Hashes[j] })
	return pr
}

func fingerprint(stem, base []int32) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	write := func(v int32) {
		buf[0] = byte(v)
		buf[1] = byte(v >> 8)
		buf[2] = byte(v >> 16)
		buf[3] = byte(v >> 24)
		h.Write(buf[:])
	}
	for _, v := range stem {
		write(v)
	}
	write(-2) // separator between stem and base
	for _, v := range base {
		write(v)
	}
	return h.Sum64()
}

// Intersection returns the bag intersection size of two profiles (which must
// share p and q).
func Intersection(a, b *Profile) int {
	if a.P != b.P || a.Q != b.Q {
		panic("pqgram: profiles with different shapes")
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
	return common
}

// Distance returns the normalised pq-gram distance in [0, 1]:
// 1 − 2·|P1 ∩ P2| / (|P1| + |P2|). Zero for identical trees; 1 for trees
// with disjoint profiles.
func Distance(a, b *Profile) float64 {
	total := a.Len() + b.Len()
	if total == 0 {
		return 0
	}
	return 1 - 2*float64(Intersection(a, b))/float64(total)
}

// BagDistance returns the un-normalised symmetric bag difference
// |P1| + |P2| − 2·|P1 ∩ P2|, the analogue of the SET baseline's binary
// branch distance.
func BagDistance(a, b *Profile) int {
	return a.Len() + b.Len() - 2*Intersection(a, b)
}

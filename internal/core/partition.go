// Package core implements PartSJ, the paper's partition-based tree similarity
// join: threshold-sensitive δ-partitioning of LC-RS binary trees (§3.3), the
// subgraph containment filter (§3.1), the subgraph index (§3.4, twig-first) and
// the join drivers (§3.2), including an order-insensitive incremental variant
// for streaming collections.
package core

import (
	"fmt"

	"treejoin/internal/lcrs"
)

// Partition is a δ-partitioning of a binary (LC-RS) tree: δ−1 bridging edges
// whose removal splits the tree into δ components, each a binary tree.
// Components are numbered 0..δ−1 in the order their roots appear in binary
// postorder; component δ−1 always contains the tree root (the paper's
// s_1..s_δ with k = Comp+1).
type Partition struct {
	Bin   *lcrs.Bin
	Delta int
	Gamma int     // the size floor used to cut (0 for random partitions)
	Comp  []int32 // node id -> component number
	Roots []int32 // component number -> root node id
	Sizes []int32 // component number -> node count
}

// maxMinSizeLowerBound is the closed-form feasible γ from Algorithm 3 line 3:
// any binary tree of size n is (δ, γ)-partitionable for γ ≤ (n+δ−1)/(2δ−1).
func maxMinSizeLowerBound(n, delta int) int {
	return (n + delta - 1) / (2*delta - 1)
}

// partitionState carries the per-node size/detached counters of Algorithm 2.
// The buffers grow to the largest tree seen and are reused across calls.
type partitionState struct {
	size     []int32
	detached []int32
}

// partitionable runs Algorithm 2: it greedily cuts γ-subtrees in binary
// postorder and reports whether at least delta components of size ≥ gamma
// exist. When cuts is non-nil, the roots of the first delta−1 γ-subtrees are
// appended to it (the recorded cuts realise a δ-partitioning whenever the
// test succeeds, cf. Lemma 3).
func partitionable(b *lcrs.Bin, delta, gamma int, st *partitionState, cuts *[]int32) bool {
	n := b.Size()
	if gamma*delta > n {
		return false
	}
	if cap(st.size) < n {
		st.size = make([]int32, n)
		st.detached = make([]int32, n)
	}
	size := st.size[:n]
	detached := st.detached[:n]
	found := 0
	// b.Order is binary postorder: both binary children of a node precede it.
	for _, v := range b.Order {
		sz, det := int32(1), int32(0)
		if l := b.Left(v); l != lcrs.None {
			sz += size[l]
			det += detached[l]
		}
		if r := b.Right(v); r != lcrs.None {
			sz += size[r]
			det += detached[r]
		}
		if int(sz-det) >= gamma {
			// γ-subtree identified: detach it (virtually).
			found++
			if cuts != nil && found < delta {
				*cuts = append(*cuts, v)
			}
			det = sz
			if found >= delta {
				return true
			}
		}
		size[v] = sz
		detached[v] = det
	}
	return false
}

// maxMinSize is Algorithm 3 (MaxMinSize): the largest γ such that b is
// (δ, γ)-partitionable, found by binary search between the closed-form lower
// bound and ⌊n/δ⌋, over the caller's scratch. It requires delta ≤ size(b);
// O(n·log(n/δ)) time.
func maxMinSize(b *lcrs.Bin, delta int, st *partitionState) int {
	n := b.Size()
	if delta > n {
		panic(fmt.Sprintf("core: MaxMinSize: delta %d exceeds tree size %d", delta, n))
	}
	if delta == n {
		return 1
	}
	gammaMax := n / delta
	gammaMin := maxMinSizeLowerBound(n, delta)
	c := gammaMax - gammaMin + 1
	for c > 1 {
		gammaMid := gammaMin + c/2
		if partitionable(b, delta, gammaMid, st, nil) {
			gammaMin = gammaMid
			c -= c / 2
		} else {
			c = c / 2
		}
	}
	return gammaMin
}

// compute runs the paper's partitioning scheme: γ = MaxMinSize(b, δ), then a
// δ-partitioning realised by the first δ−1 greedy γ-subtree cuts, with the
// root component absorbing everything else. It requires delta ≤ size(b). st
// is the caller's scratch, shared by the γ search and the cut pass and
// reusable across trees.
func compute(b *lcrs.Bin, delta int, st *partitionState) *Partition {
	gamma := maxMinSize(b, delta, st)
	cuts := make([]int32, 0, delta-1)
	if !partitionable(b, delta, gamma, st, &cuts) {
		// Unreachable: MaxMinSize returned a feasible γ.
		panic("core: Compute: MaxMinSize produced an infeasible gamma")
	}
	p := assemble(b, delta, cuts)
	p.Gamma = gamma
	return p
}

// assemble labels every node with its component: each cut root claims the
// not-yet-claimed nodes of its binary subtree (cut roots are processed in
// postorder, so inner cuts claim before outer ones), and the tree root's
// component takes the rest.
func assemble(b *lcrs.Bin, delta int, cuts []int32) *Partition {
	n := b.Size()
	p := &Partition{
		Bin:   b,
		Delta: delta,
		Comp:  make([]int32, n),
		Roots: make([]int32, delta),
		Sizes: make([]int32, delta),
	}
	for i := range p.Comp {
		p.Comp[i] = -1
	}
	stack := make([]int32, 0, 32)
	for ci, cr := range cuts {
		c := int32(ci)
		p.Roots[c] = cr
		stack = append(stack[:0], cr)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			p.Comp[v] = c
			p.Sizes[c]++
			if l := b.Left(v); l != lcrs.None && p.Comp[l] == -1 {
				stack = append(stack, l)
			}
			if r := b.Right(v); r != lcrs.None && p.Comp[r] == -1 {
				stack = append(stack, r)
			}
		}
	}
	rootComp := int32(delta - 1)
	p.Roots[rootComp] = b.Tree.Root()
	for id := range p.Comp {
		if p.Comp[id] == -1 {
			p.Comp[id] = rootComp
			p.Sizes[rootComp]++
		}
	}
	return p
}

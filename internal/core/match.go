package core

import (
	"treejoin/internal/lcrs"
)

// Subgraph matching (§3.2): a component (subgraph) s of a partitioned binary
// tree matches at node N of a probe binary tree iff the component's node
// structure appears at the top of the binary subtree rooted at N:
//
//   - labels agree node by node;
//   - a slot (left/right pointer) holding an in-component child must hold a
//     child with the same recursive structure in the probe;
//   - a slot holding a bridging edge (child in another component) must hold
//     some child in the probe — the structure below it is irrelevant;
//   - an empty slot must be empty in the probe.
//
// Matching deliberately ignores the category of the component root's incoming
// edge. The paper's worked example compares it, but doing so lets a single
// deletion touch three subgraphs (the deleted node's component, the component
// of the promoted child whose incoming category changes, and the component of
// the node whose slot is rewired), which breaks the ≤2-subgraphs accounting
// behind Lemma 1 and hence the δ = 2τ+1 guarantee of Lemma 2. With
// slot-occupancy matching every edit operation invalidates at most two
// components' matches, so the filter is safe; see DESIGN.md.
//
// The index does not walk the partition to run this test. At insert time each
// component is compiled into a match program: one word per node in component
// preorder (node, in-component left subtree, in-component right subtree),
// contiguous in the index's arena. A word holds everything the rules above
// need about one node — its label and, per slot, empty / bridge / descend
// (the label of a child that is descended into is read from the child's own
// word) — and preorder makes the walk implicit: the word after a node's is
// its left child's if that slot descends, else its right child's, else the
// word of whichever right child is still pending. The pattern side of a match
// test is thus one sequential read of 4 bytes per node instead of a tree →
// partition → view → node → component pointer chase per node. (The pointer
// walk survives in the tests, as the programs' oracle.)

// A program word is label<<5 | left<<3 | right<<1, the slots as slotKind; a
// label too large for its 27 bits sets bit 0 and follows in a word of its own.
const (
	kindEmpty uint32 = iota
	kindBridge
	kindDescend
	wideLabel = 1 << 27
)

// slotKind maps a twig slot (a child label, slotBridge or slotEmpty) to its
// kind.
func slotKind(slot int32) uint32 {
	switch slot {
	case slotEmpty:
		return kindEmpty
	case slotBridge:
		return kindBridge
	}
	return kindDescend
}

// encode appends component c's match program to the arena and returns its
// offset. The program is self-delimiting: it ends when no slot is pending.
func (ix *invIndex) encode(p *Partition, c int32) int32 {
	at := int32(len(ix.progs))
	b := p.Bin
	stack := append(ix.stack[:0], p.Roots[c])
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		tw := nodeTwig(p, c, v)
		if slots := slotKind(tw.left)<<3 | slotKind(tw.right)<<1; tw.root < wideLabel {
			ix.progs = append(ix.progs, uint32(tw.root)<<5|slots)
		} else {
			ix.progs = append(ix.progs, slots|1, uint32(tw.root))
		}
		if tw.right >= 0 {
			stack = append(stack, b.Right(v))
		}
		if tw.left >= 0 { // pushed last: the left subtree comes first
			stack = append(stack, b.Left(v))
		}
	}
	ix.stack = stack
	return at
}

// matchScratch holds the pending-right-children stack of matches, avoiding
// per-call allocation. The zero value is ready to use.
type matchScratch struct {
	stack []int32
}

// matches reports whether the subgraph behind posting e occurs at node n of
// probe (in the sense above), by running e's match program against the
// probe's nodes.
func (ix *invIndex) matches(e posting, probe *lcrs.Bin, n int32, sc *matchScratch) bool {
	nodes := probe.Tree.Nodes
	sc.stack = sc.stack[:0]
	for pc := e.prog; ; pc++ {
		w := ix.progs[pc]
		label, left, right := int32(w>>5), w>>3&3, w>>1&3
		if w&1 != 0 {
			pc++
			label = int32(ix.progs[pc])
		}
		nd := &nodes[n]
		if label != nd.Label ||
			(left == kindEmpty) != (nd.FirstChild == lcrs.None) ||
			(right == kindEmpty) != (nd.NextSibling == lcrs.None) {
			return false
		}
		switch {
		case left == kindDescend:
			if right == kindDescend {
				sc.stack = append(sc.stack, nd.NextSibling)
			}
			n = nd.FirstChild
		case right == kindDescend:
			n = nd.NextSibling
		case len(sc.stack) > 0:
			n = sc.stack[len(sc.stack)-1]
			sc.stack = sc.stack[:len(sc.stack)-1]
		default:
			return true
		}
	}
}

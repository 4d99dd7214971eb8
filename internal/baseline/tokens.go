package baseline

import (
	"treejoin/internal/engine"
	"treejoin/internal/tree"
)

// LabelTokenizer returns the label-histogram tokenisation as an
// engine.Tokenizer for the token inverted-index candidate source: one token
// per node, keyed by the node's interned label. The bag bound is the label
// histogram's L1 bound from the HIST baseline — a rename moves one unit of
// mass between two bins (L1 change 2), an insert or delete adds or removes
// one unit (L1 change 1) — so |bag(T1) ⊖ bag(T2)| = L1(labels) ≤ 2·TED and
// Slack() = 2. Bag size equals tree size, trivially size-monotone. This is
// the index tokenisation behind the HIST and SET methods, whose own pair
// filters have no bag form of their own (SET's branch distance is a 5·TED
// bound, but the label bound's C = 2 yields prefixes two and a half times
// shorter for the same soundness).
func LabelTokenizer() engine.Tokenizer {
	return engine.NewTokenizer("labels", 2, func(dst []uint64, t *tree.Tree) []uint64 {
		for i := range t.Nodes {
			dst = append(dst, uint64(uint32(t.Nodes[i].Label)))
		}
		return dst
	})
}

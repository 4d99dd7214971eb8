// phylo compares phylogenetic trees read from Newick files — the biology
// workload that motivates Newick support. Alternative published phylogenies
// of the same clade differ in where a few taxa attach; TED counts those
// rearrangements, the self-join groups compatible trees, and the constrained
// distance (which preserves clades, i.e. least common ancestors) shows when
// the optimal mapping is clade-respecting.
//
//	go run ./examples/phylo
package main

import (
	"context"
	"fmt"
	"log"

	"treejoin"
)

// Published-style hypotheses for a primate clade: the reference topology,
// one with a species moved to a different genus, one with a renamed inner
// label, and an outgroup-heavy alternative.
var hypotheses = []struct {
	name   string
	newick string
}{
	{"reference", "((human,chimp)homininae,(gorilla)gorillini,((orangutan)ponginae,gibbon)hylobatidae)hominoidea;"},
	{"gorilla-in", "((human,chimp,gorilla)homininae,((orangutan)ponginae,gibbon)hylobatidae)hominoidea;"},
	{"renamed", "((human,chimp)hominini,(gorilla)gorillini,((orangutan)ponginae,gibbon)hylobatidae)hominoidea;"},
	{"outgroup", "(((human,chimp)homininae,(gorilla)gorillini)hominidae,(macaque,baboon)cercopithecidae)catarrhini;"},
}

func main() {
	lt := treejoin.NewLabelTable()
	trees := make([]*treejoin.Tree, len(hypotheses))
	for i, h := range hypotheses {
		t, err := treejoin.ParseNewick(h.newick, lt)
		if err != nil {
			log.Fatalf("%s: %v", h.name, err)
		}
		trees[i] = t
		fmt.Printf("%-11s %2d nodes  %s\n", h.name, t.Size(), treejoin.FormatNewick(t))
	}

	// Which pairs of hypotheses are within 3 rearrangement edits?
	corpus, err := treejoin.NewCorpus(trees)
	if err != nil {
		log.Fatal(err)
	}
	pairs, _, err := corpus.SelfJoin(context.Background(), 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nhypotheses within TED 3:")
	for _, p := range pairs {
		fmt.Printf("  %-11s ~ %-11s distance %d\n",
			hypotheses[p.I].name, hypotheses[p.J].name, p.Dist)
	}

	// TED versus the clade-preserving (constrained) distance: when they
	// agree, the optimal edit mapping respects clades; a gap means the
	// cheapest explanation breaks one clade into several.
	fmt.Println("\nTED vs clade-preserving distance against the reference:")
	for i := 1; i < len(trees); i++ {
		d := treejoin.Distance(trees[0], trees[i])
		cd := treejoin.ConstrainedDistance(trees[0], trees[i])
		fmt.Printf("  %-11s TED=%d constrained=%d\n", hypotheses[i].name, d, cd)
	}
}

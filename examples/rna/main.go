// rna finds pairs of similar RNA secondary structures — the paper's biology
// motivation: "biologists are often interested in finding similar pairs of
// RNA secondary structures (which are modeled as trees) from various sources
// to better understand the relationships of different species".
//
// Secondary structures are given in dot-bracket notation: matching
// parentheses are base pairs, dots are unpaired bases. The standard tree
// encoding makes every base pair an internal node (labeled "P") whose
// children are the pairs and unpaired bases nested inside it, under a
// virtual root.
//
//	go run ./examples/rna
package main

import (
	"context"
	"fmt"
	"log"

	"treejoin"
)

// structure is one (name, sequence, dot-bracket) record. The set contains
// two tRNA-like cloverleafs differing in one loop base, a hairpin family,
// and an unrelated pseudo-stem.
var structures = []struct {
	name string
	seq  string
	db   string
}{
	{"tRNA-A", "GCGGAUUUAGCUCAGUUGGGAGAGCGCCAGACUG", "((((.(((....))).(((....))).))))..."},
	{"tRNA-B", "GCGGAUUUAGCUCAGUUGGGAGAGCGCCAGACUGA", "((((.(((....))).(((.....))).))))..."},
	{"hairpin-1", "GGGAAACCC", "(((...)))"},
	{"hairpin-2", "GGGAAAACCC", "(((....)))"},
	{"hairpin-3", "GGGGAAACCCC", "((((...))))"},
	{"stem", "GGGGCCCCAAAA", "(((())))...."},
}

func main() {
	lt := treejoin.NewLabelTable()
	trees := make([]*treejoin.Tree, len(structures))
	for i, s := range structures {
		t, err := treejoin.ParseDotBracket(s.db, s.seq, lt)
		if err != nil {
			log.Fatalf("%s: %v", s.name, err)
		}
		trees[i] = t
		fmt.Printf("%-10s %3d nodes  %s\n", s.name, t.Size(), s.db)
	}

	corpus, err := treejoin.NewCorpus(trees)
	if err != nil {
		log.Fatal(err)
	}
	const tau = 4
	pairs, _, err := corpus.SelfJoin(context.Background(), tau)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstructures within %d edits of each other:\n", tau)
	for _, p := range pairs {
		fmt.Printf("  %-10s ~ %-10s distance %d\n",
			structures[p.I].name, structures[p.J].name, p.Dist)
	}

	// Pairwise distances of one family, for context.
	fmt.Println("\nhairpin family distance matrix:")
	for i := 2; i <= 4; i++ {
		for j := 2; j <= 4; j++ {
			fmt.Printf("%3d", treejoin.Distance(trees[i], trees[j]))
		}
		fmt.Println()
	}

	// Classification by nearest neighbour: which known structure is a newly
	// determined one most like? No threshold guess needed.
	q, err := treejoin.ParseDotBracket("(((..)))", "GGGAACCC", lt)
	if err != nil {
		log.Fatal(err)
	}
	nearest, err := corpus.KNN(context.Background(), q, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nnearest neighbours of a new hairpin (((..))):")
	for _, m := range nearest {
		fmt.Printf("  %-10s distance %d\n", structures[m.Pos].name, m.Dist)
	}
}

// sentences groups English sentences by the shape of their parse trees — the
// paper's computational-linguistics motivation: "finding sentences that have
// similar parsing structures would be useful ... for semantic
// categorization".
//
// Parse trees are given in Penn-Treebank-style bracket notation with
// part-of-speech tags as labels (lexical items dropped, as is usual when
// comparing constituent structure).
//
//	go run ./examples/sentences
package main

import (
	"context"
	"fmt"
	"log"

	"treejoin"
)

var sentences = []struct {
	text  string
	parse string // POS structure in this module's bracket notation
}{
	{"The cat sat on the mat.",
		"{S{NP{DT}{NN}}{VP{VBD}{PP{IN}{NP{DT}{NN}}}}{.}}"},
	{"A dog slept under the table.",
		"{S{NP{DT}{NN}}{VP{VBD}{PP{IN}{NP{DT}{NN}}}}{.}}"},
	{"The old cat sat on the mat.",
		"{S{NP{DT}{JJ}{NN}}{VP{VBD}{PP{IN}{NP{DT}{NN}}}}{.}}"},
	{"Birds sing.",
		"{S{NP{NNS}}{VP{VBP}}{.}}"},
	{"Fish swim.",
		"{S{NP{NNS}}{VP{VBP}}{.}}"},
	{"Did the committee approve the proposal that the chairman submitted?",
		"{SQ{VBD}{NP{DT}{NN}}{VP{VB}{NP{NP{DT}{NN}}{SBAR{WHNP{WDT}}{S{NP{DT}{NN}}{VP{VBD}}}}}}{.}}"},
	{"Will the board accept the plan that the director proposed?",
		"{SQ{MD}{NP{DT}{NN}}{VP{VB}{NP{NP{DT}{NN}}{SBAR{WHNP{WDT}}{S{NP{DT}{NN}}{VP{VBD}}}}}}{.}}"},
}

func main() {
	lt := treejoin.NewLabelTable()
	trees := make([]*treejoin.Tree, len(sentences))
	for i, s := range sentences {
		t, err := treejoin.ParseBracket(s.parse, lt)
		if err != nil {
			log.Fatalf("sentence %d: %v", i, err)
		}
		trees[i] = t
	}

	// Two parses within one edit share essentially the same construction.
	const tau = 1
	corpus, err := treejoin.NewCorpus(trees)
	if err != nil {
		log.Fatal(err)
	}
	pairs, _, err := corpus.SelfJoin(context.Background(), tau)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sentences with near-identical constituent structure (τ=%d):\n\n", tau)
	for _, p := range pairs {
		fmt.Printf("  %q\n~ %q\n  (structural distance %d)\n\n",
			sentences[p.I].text, sentences[p.J].text, p.Dist)
	}

	// The same join as a stream: categorize sentences as they arrive.
	fmt.Println("streaming categorization:")
	stream, err := corpus.Incremental(tau)
	if err != nil {
		log.Fatal(err)
	}
	category := make([]int, 0, len(sentences))
	next := 0
	for i, t := range trees {
		matches := stream.Add(t)
		if len(matches) > 0 {
			category = append(category, category[matches[0].I])
		} else {
			category = append(category, next)
			next++
		}
		fmt.Printf("  category %d: %s\n", category[i], sentences[i].text)
	}

	// Constituent search inside one parse: find the noun phrases of the
	// last (most complex) sentence that look like "determiner + noun",
	// allowing one structural edit.
	pattern, err := treejoin.ParseBracket("{NP{DT}{NN}}", lt)
	if err != nil {
		log.Fatal(err)
	}
	last := trees[len(trees)-1]
	fmt.Printf("\nNP{DT,NN}-like constituents in %q (τ=1):\n", sentences[len(sentences)-1].text)
	for _, m := range treejoin.SubtreeSearch(last, pattern, 1) {
		fmt.Printf("  node %d: %s (distance %d)\n",
			m.Root, treejoin.FormatBracket(treejoin.SubtreeAt(last, m.Root)), m.Dist)
	}
}

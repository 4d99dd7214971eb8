// xmldedup detects near-duplicate XML documents — the paper's motivating
// scenario of a shopping site whose item descriptions (music albums here) are
// XML documents, where vendors want to spot items that other stores sell
// under slightly different descriptions.
//
//	go run ./examples/xmldedup
package main

import (
	"context"
	"fmt"
	"log"

	"treejoin"
)

// A small product catalog. Items 0/1/4 describe the same album with small
// editorial differences; 2 and 5 are the same single; 3 is unrelated.
var catalog = []string{
	`<album><title>Blue Train</title><artist>John Coltrane</artist>
	   <year>1957</year><tracks><t>Blue Train</t><t>Moment's Notice</t></tracks></album>`,
	`<album><title>Blue Train</title><artist>J. Coltrane</artist>
	   <year>1957</year><tracks><t>Blue Train</t><t>Moment's Notice</t></tracks></album>`,
	`<single><title>So What</title><artist>Miles Davis</artist><year>1959</year></single>`,
	`<book><title>Jazz Theory</title><author>Mark Levine</author><isbn>1883217040</isbn>
	   <year>1995</year></book>`,
	`<album><title>Blue Train</title><artist>John Coltrane</artist><label>Blue Note</label>
	   <year>1957</year><tracks><t>Blue Train</t><t>Moment's Notice</t></tracks></album>`,
	`<single><title>So What</title><artist>Miles Davis</artist><year>1959</year>
	   <remastered>true</remastered></single>`,
}

func main() {
	lt := treejoin.NewLabelTable()
	opts := treejoin.XMLOptions{IncludeText: true}
	docs := make([]*treejoin.Tree, len(catalog))
	for i, xml := range catalog {
		t, err := treejoin.ParseXMLString(xml, lt, opts)
		if err != nil {
			log.Fatalf("item %d: %v", i, err)
		}
		docs[i] = t
	}

	// Two documents within 3 node edits are considered near-duplicates:
	// enough to absorb a renamed artist, an extra element, or both.
	const tau = 3
	corpus, err := treejoin.NewCorpus(docs)
	if err != nil {
		log.Fatal(err)
	}
	pairs, stats, err := corpus.SelfJoin(context.Background(), tau)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%d items, τ=%d: %d near-duplicate pair(s)\n", len(docs), tau, len(pairs))
	fmt.Printf("(the PartSJ filter verified only %d of %d possible pairs)\n\n",
		stats.Candidates, len(docs)*(len(docs)-1)/2)
	for _, p := range pairs {
		fmt.Printf("items %d and %d differ by %d edit(s)\n", p.I, p.J, p.Dist)
	}

	// Group near-duplicates with a union-find over the join result — the
	// "diversify recommendations" use from the paper's introduction.
	parent := make([]int, len(docs))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for _, p := range pairs {
		parent[find(p.I)] = find(p.J)
	}
	groups := map[int][]int{}
	for i := range docs {
		r := find(i)
		groups[r] = append(groups[r], i)
	}
	fmt.Printf("\ncatalog collapses to %d distinct item group(s):\n", len(groups))
	for i := range docs { // each group once, by its first member
		if members := groups[find(i)]; members[0] == i {
			fmt.Printf("  %v\n", members)
		}
	}

	// Live catalog maintenance: documents are inserted and updated at a high
	// rate (the paper's closing motivation). Each update removes the stale
	// version and reports the revision's duplicates among the live items.
	stream, err := corpus.Incremental(tau)
	if err != nil {
		log.Fatal(err)
	}
	for _, d := range docs {
		stream.Add(d)
	}
	revised := treejoin.MustParseBracket(
		treejoin.FormatBracket(docs[0]), docs[0].Labels)
	pos, dups := stream.Update(0, revised)
	fmt.Printf("\nafter revising item 0 (now position %d): %d duplicate(s) among %d live items\n",
		pos, len(dups), stream.Live())
}

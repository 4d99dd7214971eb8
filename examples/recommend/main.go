// recommend demonstrates the threshold-free queries: TopK (the k most
// similar pairs of a collection, here used to flag likely duplicate listings
// so a shop can diversify its recommendations) and KNN (the k listings most
// similar to a query item, here used as a "customers also viewed" shelf) —
// the paper's C2C-shopping motivation without having to guess a TED
// threshold up front.
//
//	go run ./examples/recommend
package main

import (
	"context"
	"fmt"
	"log"

	"treejoin"
)

var listings = []string{
	"{album{title{Blue}}{artist{Joni Mitchell}}{year{1971}}{format{LP}}}",
	"{album{title{Blue}}{artist{Joni Mitchell}}{year{1971}}{format{CD}}}",
	"{album{title{Court and Spark}}{artist{Joni Mitchell}}{year{1974}}{format{LP}}}",
	"{album{title{Blue Train}}{artist{John Coltrane}}{year{1957}}{format{LP}}}",
	"{album{title{Blue Train}}{artist{John Coltrane}}{year{1957}}{format{LP}}{remaster{2003}}}",
	"{album{title{Giant Steps}}{artist{John Coltrane}}{year{1960}}{format{LP}}}",
	"{album{title{A Love Supreme}}{artist{John Coltrane}}{year{1965}}{format{LP}}}",
	"{album{title{Hejira}}{artist{Joni Mitchell}}{year{1976}}{format{LP}}}",
}

func main() {
	lt := treejoin.NewLabelTable()
	catalog := make([]*treejoin.Tree, len(listings))
	for i, s := range listings {
		t, err := treejoin.ParseBracket(s, lt)
		if err != nil {
			log.Fatal(err)
		}
		catalog[i] = t
	}
	describe := func(i int) string {
		// Concatenate the text leaves under title/artist/format: children of
		// the root are elements, each wrapping one text node.
		t := catalog[i]
		var out string
		for el := t.Nodes[0].FirstChild; el != treejoin.None; el = t.Nodes[el].NextSibling {
			switch t.Label(el) {
			case "title", "artist", "format":
				if out != "" {
					out += " · "
				}
				out += t.Label(t.Nodes[el].FirstChild)
			}
		}
		return out
	}

	ctx := context.Background()
	corpus, err := treejoin.NewCorpus(catalog)
	if err != nil {
		log.Fatal(err)
	}

	// Near-duplicate detection: the 3 closest pairs of the catalog, no
	// threshold needed. The two "Blue" listings (format differs) and the two
	// "Blue Train" pressings rank first.
	top, err := corpus.TopK(ctx, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("likely duplicate listings (TopK, k=3):")
	for _, p := range top {
		fmt.Printf("  #%d ~ #%d  distance %d\n", p.I, p.J, p.Dist)
		fmt.Printf("     %s\n     %s\n", describe(p.I), describe(p.J))
	}

	// Recommendation: the 3 listings most similar to a new item the user is
	// viewing. The corpus keeps its per-threshold indexes between queries and
	// is safe for concurrent ones.
	q, err := treejoin.ParseBracket(
		"{album{title{Blue Train}}{artist{John Coltrane}}{year{1957}}{format{SACD}}}", lt)
	if err != nil {
		log.Fatal(err)
	}
	nearest, err := corpus.KNN(ctx, q, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ncustomers also viewed (KNN, k=3):")
	for _, m := range nearest {
		fmt.Printf("  #%d  distance %d  %s\n", m.Pos, m.Dist, describe(m.Pos))
	}
}

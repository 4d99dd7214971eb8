// Command treesearch builds a similarity-search index over a dataset and
// answers query trees: each query prints the positions of all dataset trees
// within the TED threshold, or — with -k — its k nearest neighbours.
//
// Usage:
//
//	treesearch -input trees.txt -tau 2 -query '{a{b}{c}}'
//	treesearch -input trees.txt -tau 2 -queries queries.txt
//	treesearch -input trees.txt -k 5 -query '{a{b}{c}}'
//
// The dataset may be bracket text, Newick text, or a binary dataset
// (-format, auto-detected from the extension by default); queries use the
// dataset's text syntax (bracket for binary datasets). Output lines are
// "q<TAB>i<TAB>dist": query number, dataset position, distance. Threshold
// results come in ascending dataset order; -k results in ascending distance.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"

	"treejoin"
	"treejoin/internal/cli"
)

func main() {
	var (
		input   = flag.String("input", "", "dataset file (required)")
		format  = flag.String("format", "auto", "input format: bracket, newick, binary, or auto")
		tau     = flag.Int("tau", 1, "TED threshold τ ≥ 0")
		k       = flag.Int("k", 0, "report the k nearest neighbours instead of a threshold search")
		query   = flag.String("query", "", "a single query tree")
		queries = flag.String("queries", "", "file of query trees, one per line")
	)
	flag.Parse()
	if *input == "" || (*query == "" && *queries == "") {
		fmt.Fprintln(os.Stderr, "treesearch: -input and one of -query/-queries are required")
		flag.Usage()
		os.Exit(2)
	}

	ts, lt, err := cli.Load(*input, *format, nil)
	if err != nil {
		fail("%v", err)
	}
	fmtName, err := cli.DetectFormat(*input, *format)
	if err != nil {
		fail("%v", err)
	}
	qFormat := fmtName
	if qFormat == cli.FormatBinary {
		qFormat = cli.FormatBracket
	}
	var qs []*treejoin.Tree
	if *query != "" {
		q, err := cli.ParseQuery(*query, qFormat, lt)
		if err != nil {
			fail("query: %v", err)
		}
		qs = append(qs, q)
	}
	if *queries != "" {
		f, err := os.Open(*queries)
		if err != nil {
			fail("%v", err)
		}
		var more []*treejoin.Tree
		if qFormat == cli.FormatNewick {
			more, err = treejoin.ReadNewickLines(f, lt)
		} else {
			more, err = treejoin.ReadBracketLines(f, lt)
		}
		f.Close()
		if err != nil {
			fail("%v", err)
		}
		qs = append(qs, more...)
	}

	w := bufio.NewWriter(os.Stdout)
	cp, err := treejoin.NewCorpus(ts)
	if err != nil {
		fail("%v", err)
	}
	ctx := context.Background()
	for qi, q := range qs {
		var ms []treejoin.Match
		if *k > 0 {
			ms, err = cp.KNN(ctx, q, *k)
		} else {
			ms, err = cp.Search(ctx, q, *tau)
		}
		if err != nil {
			w.Flush()
			fail("query %d: %v", qi, err)
		}
		for _, m := range ms {
			fmt.Fprintf(w, "%d\t%d\t%d\n", qi, m.Pos, m.Dist)
		}
	}
	// A full disk or a closed pipe must surface as a non-zero exit, not an
	// exit 0 with silently truncated results.
	if err := w.Flush(); err != nil {
		fail("%v", err)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "treesearch: "+format+"\n", args...)
	os.Exit(1)
}

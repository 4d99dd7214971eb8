// Command tedcalc computes the exact tree edit distance between two trees
// given in bracket notation, with optional diff views.
//
// Usage:
//
//	tedcalc '{a{b}{c}}' '{a{b}{d}}'
//	tedcalc -tau 3 '{a{b}{c}}' '{a{b}{d}}'    # bounded check
//	tedcalc -constrained '{a{b}{c}}' '{a{b}{d}}'
//	tedcalc -script '{a{b}{c}}' '{a{b}{d}}'   # optimal edit script
//	tedcalc -morph '{a{b}{c}}' '{a{b}{d}}'    # one tree per edit step
//
// With -tau the program prints the exact distance when it is within the
// bound, or ">tau" otherwise, and exits 0/1 accordingly — handy in shell
// pipelines. -constrained prints the LCA-preserving distance next to the
// unrestricted TED.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"treejoin"
)

func main() {
	var (
		tau         = flag.Int("tau", -1, "optional bound: report only whether TED ≤ tau")
		constrained = flag.Bool("constrained", false, "also print the constrained (LCA-preserving) distance")
		script      = flag.Bool("script", false, "print an optimal edit script")
		morph       = flag.Bool("morph", false, "print the morph: one tree per edit step")
	)
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: tedcalc [-tau N] [-constrained] [-script] [-morph] '{tree1}' '{tree2}'")
		os.Exit(2)
	}
	lt := treejoin.NewLabelTable()
	t1, err := treejoin.ParseBracket(flag.Arg(0), lt)
	if err != nil {
		fail(err)
	}
	t2, err := treejoin.ParseBracket(flag.Arg(1), lt)
	if err != nil {
		fail(err)
	}
	w := bufio.NewWriter(os.Stdout)
	code := 0
	switch {
	case *script:
		d, ops := treejoin.EditScript(t1, t2)
		fmt.Fprintf(w, "distance %d\n", d)
		fmt.Fprint(w, treejoin.FormatEditScript(t1, t2, ops))
	case *morph:
		steps, err := treejoin.Transform(t1, t2)
		if err != nil {
			fail(err)
		}
		for i, s := range steps {
			fmt.Fprintf(w, "%d: %s\n", i, treejoin.FormatBracket(s))
		}
	case *constrained:
		fmt.Fprintf(w, "ted %d\nconstrained %d\n",
			treejoin.Distance(t1, t2), treejoin.ConstrainedDistance(t1, t2))
	case *tau >= 0:
		if d, ok := treejoin.DistanceWithin(t1, t2, *tau); ok {
			fmt.Fprintln(w, d)
		} else {
			fmt.Fprintf(w, ">%d\n", *tau)
			code = 1
		}
	default:
		fmt.Fprintln(w, treejoin.Distance(t1, t2))
	}
	// A full disk or a closed pipe must surface as a non-zero exit, not an
	// exit 0 with the answer lost.
	if err := w.Flush(); err != nil {
		fail(err)
	}
	os.Exit(code)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "tedcalc: %v\n", err)
	os.Exit(1)
}

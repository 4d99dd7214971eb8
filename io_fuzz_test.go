// Fuzzers for the public parsers, promoted from the internal packages'
// fuzz coverage (internal/tree fuzzes the raw parsers; these exercise the
// exported entry points, including the line-oriented reader with its
// comment/blank handling and error positions). Invariants: arbitrary input
// must never panic, and any input a parser accepts must round-trip — format
// then re-read yields an equal collection. Seeds mirror the examples/
// programs' inputs, so the corpus starts from realistic documents.
package treejoin_test

import (
	"bytes"
	"strings"
	"testing"

	"treejoin"
	"treejoin/internal/tree"
)

// FuzzReadBracketLines: the line reader must never panic and must agree with
// a sequential read (trees, label ids, table order, or the error); an input
// it accepts must agree again when repeated until it spans three of the
// reader's chunks, which puts the fuzzer's line shapes on the parallel path,
// and must survive WriteBracketLines → ReadBracketLines unchanged.
func FuzzReadBracketLines(f *testing.F) {
	f.Add("{a{b}{c{d}}}\n{b}\n")
	f.Add("# catalog, one record per line\n{album{title{Blue}}{artist{Joni Mitchell}}{year{1971}}{format{LP}}}\n\n{album{title{Blue Train}}{artist{John Coltrane}}{year{1957}}{format{LP}}}\n")
	f.Add("{S{NP{DT}{NN}}{VP{VBD}{PP{IN}{NP{DT}{NN}}}}{.}}\n")
	f.Add("  # only a comment\n")
	f.Add("{a")
	f.Add("}{")
	f.Add("{item{name{espresso machine}}{brand{Gaggia}}{price{449}}}")
	f.Fuzz(func(t *testing.T, data string) {
		checkReadMatchesSequential(t, data, nil)
		ts, err := treejoin.ReadBracketLines(strings.NewReader(data), nil)
		if err != nil {
			return
		}
		checkReadMatchesSequential(t, strings.Repeat(data+"\n", 1+(3*64<<10)/(len(data)+1)), []string{"b"})
		for i, tr := range ts {
			if err := tr.Validate(); err != nil {
				t.Fatalf("accepted invalid tree %d: %v", i, err)
			}
		}
		var buf bytes.Buffer
		if err := treejoin.WriteBracketLines(&buf, ts); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		back, err := treejoin.ReadBracketLines(&buf, nil)
		if err != nil {
			t.Fatalf("written form does not re-read: %v", err)
		}
		if len(back) != len(ts) {
			t.Fatalf("round trip changed collection size: %d -> %d", len(ts), len(back))
		}
		for i := range ts {
			if treejoin.FormatBracket(ts[i]) != treejoin.FormatBracket(back[i]) {
				t.Fatalf("round trip changed tree %d", i)
			}
		}
	})
}

// FuzzParseNewick: the public Newick parser must never panic, and accepted
// input must round-trip through FormatNewick with identical structure.
func FuzzParseNewick(f *testing.F) {
	f.Add("(A,B,(C,D)E)F;")
	f.Add("((human,chimp)homininae,(gorilla)gorillini,((orangutan)ponginae,gibbon)hylobatidae)hominoidea;")
	f.Add("(((human,chimp)homininae,(gorilla)gorillini)hominidae,(macaque,baboon)cercopithecidae)catarrhini;")
	f.Add("('quoted name',B:1.5)root;")
	f.Add("(a[comment],b);")
	f.Add("();")
	f.Add(";")
	f.Add("(,);")
	f.Fuzz(func(t *testing.T, data string) {
		lt := treejoin.NewLabelTable()
		tr, err := treejoin.ParseNewick(data, lt)
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("accepted invalid tree: %v", err)
		}
		out := treejoin.FormatNewick(tr)
		back, err := treejoin.ParseNewick(out, lt)
		if err != nil {
			t.Fatalf("formatted form %q does not re-parse: %v", out, err)
		}
		if !tree.Equal(tr, back) {
			t.Fatalf("round trip changed the tree: %q", out)
		}
	})
}

// FuzzParseDotBracket: the RNA dot-bracket parser must never panic, must
// reject structure/sequence length mismatches, and every accepted structure
// must encode to a tree whose size matches the number of positions plus
// pairs plus the virtual root.
func FuzzParseDotBracket(f *testing.F) {
	f.Add("((((.(((....))).(((....))).))))...", "")
	f.Add("(((..)))", "GGGAACCC")
	f.Add("(((....)))", "GCGCAAAAGCGC")
	f.Add("...", "AGU")
	f.Add("", "")
	f.Add("((.)", "")
	f.Add("))((", "AAAA")
	f.Fuzz(func(t *testing.T, structure, seq string) {
		lt := treejoin.NewLabelTable()
		tr, err := treejoin.ParseDotBracket(structure, seq, lt)
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("accepted invalid tree: %v", err)
		}
		if seq != "" && len(seq) != len(structure) {
			t.Fatalf("accepted structure/sequence length mismatch: %d vs %d", len(structure), len(seq))
		}
		// One node per base pair, one per unpaired position, plus the root:
		// pairs + (len - 2*pairs) + 1.
		pairs := strings.Count(structure, "(")
		want := pairs + (len(structure) - 2*pairs) + 1
		if tr.Size() != want {
			t.Fatalf("structure %q: tree size %d, want %d", structure, tr.Size(), want)
		}
		// Accepted input re-parses identically without a sequence only when
		// one was absent; with a sequence, shape is unchanged.
		bare, err := treejoin.ParseDotBracket(structure, "", lt)
		if err != nil {
			t.Fatalf("accepted structure rejected without sequence: %v", err)
		}
		if bare.Size() != tr.Size() {
			t.Fatalf("sequence changed tree shape: %d vs %d", bare.Size(), tr.Size())
		}
	})
}

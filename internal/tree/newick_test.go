package tree_test

import (
	"math/rand"
	"strings"
	"testing"

	"treejoin/internal/tree"
)

func TestParseNewickHandCases(t *testing.T) {
	lt := tree.NewLabelTable()
	cases := []struct {
		in   string
		size int
		root string
	}{
		{"A;", 1, "A"},
		{"(A,B)C;", 3, "C"},
		{"(A,B,(C,D)E)F;", 6, "F"},
		{"(,);", 3, ""}, // unnamed leaves and root
		{"(A:0.1,B:0.2)C:0.3;", 3, "C"},
		{"('it''s',B)'r o o t';", 3, "r o o t"},
		{"[comment](A,B)C;[after] ", 3, "C"},
		{"((((deep))));", 5, ""},
	}
	for _, c := range cases {
		tr, err := tree.ParseNewick(c.in, lt)
		if err != nil {
			t.Errorf("ParseNewick(%q): %v", c.in, err)
			continue
		}
		if tr.Size() != c.size {
			t.Errorf("ParseNewick(%q): size %d, want %d", c.in, tr.Size(), c.size)
		}
		if got := tr.Label(tr.Root()); got != c.root {
			t.Errorf("ParseNewick(%q): root %q, want %q", c.in, got, c.root)
		}
		if err := tr.Validate(); err != nil {
			t.Errorf("ParseNewick(%q): invalid tree: %v", c.in, err)
		}
	}
}

func TestParseNewickPreservesChildOrder(t *testing.T) {
	lt := tree.NewLabelTable()
	tr := tree.MustParseNewick("(B,A,C)r;", lt)
	var got []string
	for c := tr.Nodes[tr.Root()].FirstChild; c != tree.None; c = tr.Nodes[c].NextSibling {
		got = append(got, tr.Label(c))
	}
	if strings.Join(got, "") != "BAC" {
		t.Fatalf("child order %v", got)
	}
}

func TestParseNewickErrors(t *testing.T) {
	lt := tree.NewLabelTable()
	for _, in := range []string{
		"",            // no tree
		"A",           // missing ';'
		"(A,B;",       // missing ')'
		"(A,B)C; x",   // trailing input
		"(A,B)C:;",    // ':' without length
		"'unclosed;",  // unterminated quote
		"(A,B))C;",    // extra ')'
		"[unclosed A", // unterminated comment swallows everything
	} {
		if _, err := tree.ParseNewick(in, lt); err == nil {
			t.Errorf("ParseNewick(%q): expected error", in)
		}
	}
}

func TestFormatNewickRoundTrip(t *testing.T) {
	lt := tree.NewLabelTable()
	for _, in := range []string{
		"A;",
		"(A,B)C;",
		"(A,B,(C,D)E)F;",
		"(,);",
	} {
		tr := tree.MustParseNewick(in, lt)
		if got := tree.FormatNewick(tr); got != in {
			t.Errorf("FormatNewick(Parse(%q)) = %q", in, got)
		}
	}
}

// TestNewickRoundTripRandom: Format then Parse reproduces random trees,
// including labels full of Newick metacharacters.
func TestNewickRoundTripRandom(t *testing.T) {
	labels := []string{"a", "b", "node name", "it's", "(paren)", "semi;colon", "co,mma", "", "co:lon", "[br]"}
	rng := rand.New(rand.NewSource(601))
	lt := tree.NewLabelTable()
	for i := 0; i < 200; i++ {
		n := 1 + rng.Intn(25)
		b := tree.NewBuilder(lt)
		b.Root(labels[rng.Intn(len(labels))])
		for j := 1; j < n; j++ {
			b.Child(int32(rng.Intn(j)), labels[rng.Intn(len(labels))])
		}
		tr := b.MustBuild()
		out := tree.FormatNewick(tr)
		back, err := tree.ParseNewick(out, lt)
		if err != nil {
			t.Fatalf("round-trip parse of %q: %v", out, err)
		}
		if !tree.Equal(tr, back) {
			t.Fatalf("round trip changed tree: %q", out)
		}
	}
}

func TestParseDotBracket(t *testing.T) {
	lt := tree.NewLabelTable()
	// (((...))): three nested pairs around a three-base loop.
	tr, err := tree.ParseDotBracket("(((...)))", "GGGAAACCC", lt)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Size() != 7 { // root + 3 P + 3 bases
		t.Fatalf("size = %d, want 7", tr.Size())
	}
	if tr.Label(tr.Root()) != "root" {
		t.Fatalf("root label %q", tr.Label(tr.Root()))
	}
	// Walk to the innermost pair: root -> P -> P -> P -> {A, A, A}.
	n := tr.Nodes[tr.Root()].FirstChild
	for depth := 0; depth < 3; depth++ {
		if tr.Label(n) != "P" {
			t.Fatalf("depth %d label %q", depth, tr.Label(n))
		}
		n = tr.Nodes[n].FirstChild
	}
	var bases []string
	for ; n != tree.None; n = tr.Nodes[n].NextSibling {
		bases = append(bases, tr.Label(n))
	}
	if strings.Join(bases, "") != "AAA" {
		t.Fatalf("loop bases %v", bases)
	}
	// Without a sequence, unpaired positions become "N".
	tr2, err := tree.ParseDotBracket("(.)", "", lt)
	if err != nil {
		t.Fatal(err)
	}
	inner := tr2.Nodes[tr2.Nodes[tr2.Root()].FirstChild].FirstChild
	if tr2.Label(inner) != "N" {
		t.Fatalf("unpaired label %q", tr2.Label(inner))
	}
}

func TestParseDotBracketErrors(t *testing.T) {
	lt := tree.NewLabelTable()
	for _, c := range []struct{ db, seq string }{
		{"((.)", ""},      // unmatched (
		{"(.))", ""},      // extra )
		{"(x)", ""},       // bad character
		{"(...)", "GGAA"}, // length mismatch
	} {
		if _, err := tree.ParseDotBracket(c.db, c.seq, lt); err == nil {
			t.Errorf("ParseDotBracket(%q, %q): expected error", c.db, c.seq)
		}
	}
}

// TestDotBracketEmpty: the empty structure is a lone root.
func TestDotBracketEmpty(t *testing.T) {
	lt := tree.NewLabelTable()
	tr, err := tree.ParseDotBracket("", "", lt)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Size() != 1 {
		t.Fatalf("size = %d", tr.Size())
	}
}

// TestParseNewickDeepTree: like ParseBracket, the Newick parser keeps its own
// stack of open nodes, so 4 M nested parentheses cost heap, not a goroutine
// stack grown towards the runtime's fatal limit.
func TestParseNewickDeepTree(t *testing.T) {
	const depth = 4_000_000
	tr, err := tree.ParseNewick(strings.Repeat("(", depth)+"x"+strings.Repeat(")", depth)+"r;", nil)
	if err != nil {
		t.Fatalf("deep parse: %v", err)
	}
	if tr.Size() != depth+1 || tr.Label(0) != "r" || tr.Label(depth) != "x" {
		t.Fatalf("size %d, root %q, leaf %q", tr.Size(), tr.Label(0), tr.Label(depth))
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("deep tree invalid: %v", err)
	}
	if _, err := tree.ParseNewick(strings.Repeat("(", depth)+"x;", nil); err == nil {
		t.Fatal("unclosed deep nesting accepted")
	}
}

package tree_test

import (
	"errors"
	"math/rand"
	"runtime/debug"
	"strings"
	"testing"

	"treejoin/internal/tree"
)

func TestParseBracketBasics(t *testing.T) {
	lt := tree.NewLabelTable()
	tr := tree.MustParseBracket("{a{b{d}}{c}}", lt)
	if tr.Size() != 4 {
		t.Fatalf("size = %d", tr.Size())
	}
	if tr.Label(tr.Root()) != "a" {
		t.Fatalf("root = %q", tr.Label(tr.Root()))
	}
	cs := tr.Children(tr.Root())
	if len(cs) != 2 || tr.Label(cs[0]) != "b" || tr.Label(cs[1]) != "c" {
		t.Fatalf("children labels wrong")
	}
	if gs := tr.Children(cs[0]); len(gs) != 1 || tr.Label(gs[0]) != "d" {
		t.Fatalf("grandchild wrong")
	}
}

func TestParseBracketWhitespaceBetweenNodes(t *testing.T) {
	lt := tree.NewLabelTable()
	a := tree.MustParseBracket("{a {b} {c{d}} }", lt)
	b := tree.MustParseBracket("{a{b}{c{d}}}", lt)
	// The label "a " keeps its trailing space only if no child follows
	// immediately; here whitespace sits between tokens and is skipped before
	// '{' but retained in the label text itself. Verify via round trip
	// equality of shapes and that parsing succeeded.
	if a.Size() != b.Size() {
		t.Fatalf("sizes differ: %d vs %d", a.Size(), b.Size())
	}
}

func TestParseBracketEscapes(t *testing.T) {
	lt := tree.NewLabelTable()
	tr := tree.MustParseBracket(`{a\{x\}{b\\}}`, lt)
	if got := tr.Label(0); got != "a{x}" {
		t.Fatalf("root label = %q, want %q", got, "a{x}")
	}
	if got := tr.Label(1); got != `b\` {
		t.Fatalf("child label = %q, want %q", got, `b\`)
	}
	// Round trip.
	s := tree.FormatBracket(tr)
	tr2, err := tree.ParseBracket(s, lt)
	if err != nil {
		t.Fatalf("reparse %q: %v", s, err)
	}
	if !tree.Equal(tr, tr2) {
		t.Fatalf("escape round trip failed: %q", s)
	}
}

func TestParseBracketErrors(t *testing.T) {
	bad := []string{
		"",            // empty
		"a",           // no braces
		"{a",          // unclosed
		"{a}}",        // trailing
		"{a}{b}",      // two roots
		"{a{b}",       // unclosed inner
		"{a{b}} xx",   // trailing garbage
		`{a\`,         // dangling escape
		"   ",         // only whitespace
		"{a}extra{b}", // garbage between trees
	}
	for _, s := range bad {
		if _, err := tree.ParseBracket(s, nil); err == nil {
			t.Errorf("ParseBracket(%q) succeeded, want error", s)
		}
	}
}

func TestFormatParseRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	lt := tree.NewLabelTable()
	for i := 0; i < 300; i++ {
		orig := randomTree(rng, 50, 6, lt)
		s := tree.FormatBracket(orig)
		back, err := tree.ParseBracket(s, lt)
		if err != nil {
			t.Fatalf("round trip parse failed: %v on %q", err, s)
		}
		if !tree.Equal(orig, back) {
			t.Fatalf("round trip changed the tree: %q", s)
		}
	}
}

func TestFormatBracketCanonical(t *testing.T) {
	lt := tree.NewLabelTable()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		a := randomTree(rng, 30, 3, lt)
		b := randomTree(rng, 30, 3, lt)
		sa, sb := tree.FormatBracket(a), tree.FormatBracket(b)
		if tree.Equal(a, b) != (sa == sb) {
			t.Fatalf("canonical property violated:\n%s\n%s", sa, sb)
		}
	}
}

func TestParseBracketSingleNodeAndEmptyLabel(t *testing.T) {
	lt := tree.NewLabelTable()
	one := tree.MustParseBracket("{x}", lt)
	if one.Size() != 1 || one.Label(0) != "x" {
		t.Fatalf("single node parse wrong")
	}
	anon := tree.MustParseBracket("{{a}{b}}", lt)
	if anon.Size() != 3 || anon.Label(0) != "" {
		t.Fatalf("empty root label parse wrong: size=%d root=%q", anon.Size(), anon.Label(0))
	}
	if s := tree.FormatBracket(anon); s != "{{a}{b}}" {
		t.Fatalf("format of empty label = %q", s)
	}
}

// TestParseDeepTree: nesting depth costs the parser heap, not goroutine
// stack. 4 M levels is the deepest tree treejoind's 8 MiB body cap admits; the
// recursive-descent parser this replaced died there with the runtime's
// unrecoverable "fatal error: stack overflow".
func TestParseDeepTree(t *testing.T) {
	const depth = 4_000_000
	tr, err := tree.ParseBracket(strings.Repeat("{", depth)+strings.Repeat("}", depth), nil)
	if err != nil {
		t.Fatalf("deep parse: %v", err)
	}
	if tr.Size() != depth {
		t.Fatalf("size = %d", tr.Size())
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("deep tree invalid: %v", err)
	}
	if _, err := tree.ParseBracket(strings.Repeat("{a", depth)+"}", nil); err == nil || !strings.Contains(err.Error(), `unclosed node "a"`) {
		t.Fatalf("unclosed deep chain: %v", err)
	}
}

// TestFormatDeepChain: nesting depth costs the formatters heap, not goroutine
// stack. A 1 M-deep chain formats and round-trips in both notations on a fresh
// goroutine whose stack is capped at 16 MB, where formatters recursing once
// per level die with the runtime's unrecoverable "fatal error: stack
// overflow".
func TestFormatDeepChain(t *testing.T) {
	const depth = 1_000_000
	lt := tree.NewLabelTable()
	src := strings.Repeat("{a", depth) + strings.Repeat("}", depth)
	tr := tree.MustParseBracket(src, lt)
	defer debug.SetMaxStack(debug.SetMaxStack(16 << 20))
	done := make(chan error)
	go func() {
		done <- func() error {
			if tree.FormatBracket(tr) != src {
				return errors.New("bracket form is not the parsed string")
			}
			nw := tree.FormatNewick(tr)
			if want := strings.Repeat("(", depth-1) + "a" + strings.Repeat(")a", depth-1) + ";"; nw != want {
				return errors.New("Newick form differs from the chain's")
			}
			back, err := tree.ParseNewick(nw, lt)
			if err != nil {
				return err
			}
			if !tree.Equal(back, tr) {
				return errors.New("Newick round trip changed the tree")
			}
			return nil
		}()
	}()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

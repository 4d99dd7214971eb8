package treejoin_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"treejoin"
	"treejoin/internal/synth"
)

func TestPublicMappingAndScript(t *testing.T) {
	lt := treejoin.NewLabelTable()
	a := treejoin.MustParseBracket("{a{b}{c{d}}}", lt)
	b := treejoin.MustParseBracket("{a{b}{x{d}}{e}}", lt)
	dist, pairs := treejoin.Mapping(a, b)
	if dist != 2 { // rename c->x, insert e
		t.Fatalf("dist = %d", dist)
	}
	if len(pairs) != a.Size() {
		t.Fatalf("mapping pairs = %d", len(pairs))
	}
	d2, script := treejoin.EditScript(a, b)
	if d2 != dist || len(script) != dist {
		t.Fatalf("script: dist=%d len=%d", d2, len(script))
	}
	out := treejoin.FormatEditScript(a, b, script)
	if !strings.Contains(out, `rename "c" -> "x"`) || !strings.Contains(out, `insert "e"`) {
		t.Fatalf("formatted script = %q", out)
	}
}

func TestPublicSearchIndex(t *testing.T) {
	ts := synth.Synthetic(80, 7)
	cp := mustCorpus(t, ts)
	search := func(q *treejoin.Tree) []treejoin.Match {
		ms, err := cp.Search(context.Background(), q, 2)
		if err != nil {
			t.Fatal(err)
		}
		return ms
	}
	// Every collection member finds itself at distance 0.
	for i := 0; i < 10; i++ {
		ms := search(ts[i])
		self := false
		for _, m := range ms {
			if m.Pos == i && m.Dist != 0 {
				t.Fatalf("self distance %d", m.Dist)
			}
			if m.Pos == i {
				self = true
			}
			if m.Dist > 2 {
				t.Fatalf("match beyond threshold: %v", m)
			}
		}
		if !self {
			t.Fatalf("tree %d did not match itself", i)
		}
	}
	// Search results agree with SelfJoin pairs for in-collection queries.
	pairs, _ := selfJoin(t, ts, 2)
	inJoin := map[[2]int]bool{}
	for _, p := range pairs {
		inJoin[[2]int{p.I, p.J}] = true
		inJoin[[2]int{p.J, p.I}] = true
	}
	for i := 0; i < 20; i++ {
		for _, m := range search(ts[i]) {
			if m.Pos == i {
				continue
			}
			if !inJoin[[2]int{i, m.Pos}] {
				t.Fatalf("search found (%d,%d) not in join", i, m.Pos)
			}
		}
	}
}

func ExampleEditScript() {
	lt := treejoin.NewLabelTable()
	a := treejoin.MustParseBracket("{html{body{p{old text}}}}", lt)
	b := treejoin.MustParseBracket("{html{body{p{new text}}{footer}}}", lt)
	dist, script := treejoin.EditScript(a, b)
	fmt.Printf("distance %d\n", dist)
	fmt.Print(treejoin.FormatEditScript(a, b, script))
	// Output:
	// distance 2
	// rename "old text" -> "new text"
	// insert "footer"
}

func ExampleCorpus_Search() {
	lt := treejoin.NewLabelTable()
	ts := []*treejoin.Tree{
		treejoin.MustParseBracket("{a{b}{c}}", lt),
		treejoin.MustParseBracket("{a{b}{d}}", lt),
		treejoin.MustParseBracket("{z{z{z}}}", lt),
	}
	corpus, err := treejoin.NewCorpus(ts)
	if err != nil {
		panic(err)
	}
	matches, err := corpus.Search(context.Background(), treejoin.MustParseBracket("{a{b}{e}}", lt), 1)
	if err != nil {
		panic(err)
	}
	for _, m := range matches {
		fmt.Printf("tree %d at distance %d\n", m.Pos, m.Dist)
	}
	// Output:
	// tree 0 at distance 1
	// tree 1 at distance 1
}

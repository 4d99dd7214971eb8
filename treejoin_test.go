package treejoin_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"treejoin"
	"treejoin/internal/ted"
)

func sampleTrees(lt *treejoin.LabelTable) []*treejoin.Tree {
	return []*treejoin.Tree{
		treejoin.MustParseBracket("{album{title{Blue}}{artist{JM}}{year{1971}}}", lt),
		treejoin.MustParseBracket("{album{title{Blue!}}{artist{JM}}{year{1971}}}", lt),
		treejoin.MustParseBracket("{album{title{Red}}{artist{TS}}{year{2012}}}", lt),
		treejoin.MustParseBracket("{book{title{Go}}{year{2015}}}", lt),
	}
}

func TestPublicDistance(t *testing.T) {
	lt := treejoin.NewLabelTable()
	a := treejoin.MustParseBracket("{a{b}{c}}", lt)
	b := treejoin.MustParseBracket("{a{b}{d}}", lt)
	if d := treejoin.Distance(a, b); d != 1 {
		t.Fatalf("Distance = %d", d)
	}
	if d, ok := treejoin.DistanceWithin(a, b, 0); ok {
		t.Fatalf("DistanceWithin(0) = %d, ok", d)
	}
	if d, ok := treejoin.DistanceWithin(a, b, 1); !ok || d != 1 {
		t.Fatalf("DistanceWithin(1) = %d, %v", d, ok)
	}
}

// TestDistanceBothDecompositions: Distance equals the left-path Zhang–Shasha
// on left-deep pairs and on right-deep pairs, the shapes on which it runs the
// left and the right decomposition (internal/ted's
// TestDistanceEitherDecomposition asserts the pick).
func TestDistanceBothDecompositions(t *testing.T) {
	lt := treejoin.NewLabelTable()
	// comb nests depth spine nodes, each with the next one as its first child
	// (left-deep) or its last (right-deep) and a leaf labelled from labs
	// beside it.
	comb := func(depth int, labs string, leftDeep bool) *treejoin.Tree {
		s := "{x}"
		for i := range depth {
			leaf := "{" + string(labs[i%len(labs)]) + "}"
			if leftDeep {
				s = "{s" + s + leaf + "}"
			} else {
				s = "{s" + leaf + s + "}"
			}
		}
		return treejoin.MustParseBracket(s, lt)
	}
	for _, leftDeep := range []bool{true, false} {
		for _, p := range [][2]string{{"ab", "ba"}, {"abc", "aab"}, {"a", "bcd"}} {
			for _, depth := range []int{3, 9, 17} {
				a, b := comb(depth, p[0], leftDeep), comb(depth+depth%4, p[1], leftDeep)
				if d, z := treejoin.Distance(a, b), ted.ZhangShasha(a, b); d != z {
					t.Fatalf("left-deep %v, depth %d, labels %q/%q: Distance %d, ZhangShasha %d", leftDeep, depth, p[0], p[1], d, z)
				}
			}
		}
	}
}

func TestPublicCrossJoin(t *testing.T) {
	lt := treejoin.NewLabelTable()
	ts := sampleTrees(lt)
	pairs, _ := crossJoin(t, ts[:2], ts[2:], 1)
	if len(pairs) != 0 {
		t.Fatalf("cross pairs = %v", pairs)
	}
	pairs, _ = crossJoin(t, ts[:2], ts[1:2], 1)
	// A[0]~B[0] (dist 1), A[1]~B[0] (dist 0)
	if len(pairs) != 2 {
		t.Fatalf("cross pairs = %v", pairs)
	}
}

func TestPublicIncremental(t *testing.T) {
	lt := treejoin.NewLabelTable()
	inc, _ := mustCorpus(t, nil).Incremental(1)
	ts := sampleTrees(lt)
	var total int
	for _, tr := range ts {
		total += len(inc.Add(tr))
	}
	if total != 1 {
		t.Fatalf("incremental found %d pairs, want 1", total)
	}
	if inc.Len() != len(ts) {
		t.Fatalf("Len = %d", inc.Len())
	}
	if inc.Stats().Results != 1 {
		t.Fatalf("stats results = %d", inc.Stats().Results)
	}
}

func TestReadWriteBracketLines(t *testing.T) {
	input := "# a comment\n{a{b}}\n\n{c}\n  # another\n{d{e{f}}}\n"
	ts, err := treejoin.ReadBracketLines(strings.NewReader(input), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 3 {
		t.Fatalf("read %d trees", len(ts))
	}
	var sb strings.Builder
	if err := treejoin.WriteBracketLines(&sb, ts); err != nil {
		t.Fatal(err)
	}
	if sb.String() != "{a{b}}\n{c}\n{d{e{f}}}\n" {
		t.Fatalf("round trip = %q", sb.String())
	}
	if _, err := treejoin.ReadBracketLines(strings.NewReader("{a{b}}\nnot-a-tree\n"), nil); err == nil {
		t.Fatal("bad line not reported")
	} else if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error lacks line number: %v", err)
	}
}

func TestMethodString(t *testing.T) {
	if treejoin.MethodPartSJ.String() != "PRT" || treejoin.MethodSTR.String() != "STR" ||
		treejoin.MethodSET.String() != "SET" || treejoin.MethodBruteForce.String() != "BF" {
		t.Fatal("method names wrong")
	}
}

func ExampleCorpus_SelfJoin() {
	lt := treejoin.NewLabelTable()
	corpus, _ := treejoin.NewCorpus([]*treejoin.Tree{
		treejoin.MustParseBracket("{html{head{title{x}}}{body{p{hi}}}}", lt),
		treejoin.MustParseBracket("{html{head{title{x}}}{body{p{hello}}}}", lt),
		treejoin.MustParseBracket("{html{body{table{tr{td}}}}}", lt),
	})
	pairs, _, _ := corpus.SelfJoin(context.Background(), 2)
	for _, p := range pairs {
		fmt.Printf("documents %d and %d differ by %d edit(s)\n", p.I, p.J, p.Dist)
	}
	// Output:
	// documents 0 and 1 differ by 1 edit(s)
}

func ExampleIncremental() {
	lt := treejoin.NewLabelTable()
	corpus, _ := treejoin.NewCorpus(nil)
	stream, _ := corpus.Incremental(1)
	for _, s := range []string{"{a{b}{c}}", "{a{b}{d}}", "{x{y}}"} {
		matches := stream.Add(treejoin.MustParseBracket(s, lt))
		fmt.Printf("%s: %d match(es)\n", s, len(matches))
	}
	// Output:
	// {a{b}{c}}: 0 match(es)
	// {a{b}{d}}: 1 match(es)
	// {x{y}}: 0 match(es)
}

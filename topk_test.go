package treejoin_test

import (
	"cmp"
	"context"
	"slices"
	"sync"
	"testing"

	"treejoin"
	"treejoin/internal/synth"
)

func TestPublicTopK(t *testing.T) {
	lt := treejoin.NewLabelTable()
	ts := []*treejoin.Tree{
		treejoin.MustParseBracket("{album{title{Blue}}{year{1971}}}", lt),
		treejoin.MustParseBracket("{album{title{Blue!}}{year{1971}}}", lt),
		treejoin.MustParseBracket("{album{title{Red}}{year{1980}}{label{X}}}", lt),
		treejoin.MustParseBracket("{book{title{Blue}}}", lt),
	}
	got, err := mustCorpus(t, ts).TopK(context.Background(), 2)
	if err != nil || len(got) != 2 {
		t.Fatalf("got %d pairs", len(got))
	}
	if got[0].I != 0 || got[0].J != 1 || got[0].Dist != 1 {
		t.Fatalf("closest pair = %+v", got[0])
	}
	if got[1].Dist < got[0].Dist {
		t.Fatalf("pairs unsorted: %+v", got)
	}
	// TopK agrees with a SelfJoin at the distance of its worst pair.
	pairs, _ := selfJoin(t, ts, got[1].Dist)
	found := 0
	for _, p := range pairs {
		if p == got[0] || p == got[1] {
			found++
		}
	}
	if found != 2 {
		t.Fatalf("TopK pairs missing from SelfJoin result: %v vs %v", got, pairs)
	}
}

func TestPublicKNN(t *testing.T) {
	lt := treejoin.NewLabelTable()
	ts := []*treejoin.Tree{
		treejoin.MustParseBracket("{a{b}{c}}", lt),
		treejoin.MustParseBracket("{a{b}{c}{d}}", lt),
		treejoin.MustParseBracket("{x{y{z}}}", lt),
	}
	q := treejoin.MustParseBracket("{a{b}{c}{e}}", lt)
	ms, err := mustCorpus(t, ts).KNN(context.Background(), q, 2)
	if err != nil || len(ms) != 2 {
		t.Fatalf("got %d matches", len(ms))
	}
	// Both neighbours are at distance 1 (delete e, resp. rename e→d), so the
	// (Dist, Pos) order puts position 0 first.
	if ms[0].Pos != 0 || ms[0].Dist != 1 {
		t.Fatalf("nearest = %+v", ms[0])
	}
	if ms[1].Pos != 1 || ms[1].Dist != 1 {
		t.Fatalf("second = %+v", ms[1])
	}
}

func TestPublicConstrainedDistance(t *testing.T) {
	lt := treejoin.NewLabelTable()
	a := treejoin.MustParseBracket("{a{b{c}}}", lt)
	b := treejoin.MustParseBracket("{a{c}}", lt)
	if d := treejoin.ConstrainedDistance(a, b); d != 1 {
		t.Fatalf("CTED = %d, want 1", d)
	}
	if d := treejoin.Distance(a, b); d != 1 {
		t.Fatalf("TED = %d, want 1", d)
	}
}

func TestPublicExtraMethods(t *testing.T) {
	lt := treejoin.NewLabelTable()
	ts := []*treejoin.Tree{
		treejoin.MustParseBracket("{a{b}{c}}", lt),
		treejoin.MustParseBracket("{a{b}{c}{d}}", lt),
		treejoin.MustParseBracket("{a{b}{x}}", lt),
		treejoin.MustParseBracket("{q{r{s{t{u}}}}}", lt),
	}
	want, _ := selfJoin(t, ts, 2)
	for _, m := range []treejoin.Method{treejoin.MethodHistogram, treejoin.MethodEulerString} {
		got, _ := selfJoin(t, ts, 2, treejoin.WithMethod(m))
		if len(got) != len(want) {
			t.Fatalf("%v: %d pairs, want %d", m, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%v: pair %d = %v, want %v", m, i, got[i], want[i])
			}
		}
	}
	if treejoin.MethodHistogram.String() != "HIST" || treejoin.MethodEulerString.String() != "EUL" {
		t.Fatal("method names")
	}
}

func TestPublicSubtreeSearch(t *testing.T) {
	lt := treejoin.NewLabelTable()
	data := treejoin.MustParseBracket("{html{body{div{p}{p}}{div{p}{ul{li}}}}}", lt)
	query := treejoin.MustParseBracket("{div{p}{p}}", lt)
	ms := treejoin.SubtreeSearch(data, query, 0)
	if len(ms) != 1 || ms[0].Dist != 0 {
		t.Fatalf("exact search: %v", ms)
	}
	if got := treejoin.FormatBracket(treejoin.SubtreeAt(data, ms[0].Root)); got != "{div{p}{p}}" {
		t.Fatalf("matched subtree %s", got)
	}
}

func TestPublicIncrementalRemove(t *testing.T) {
	lt := treejoin.NewLabelTable()
	inc, _ := mustCorpus(t, nil).Incremental(1)
	inc.Add(treejoin.MustParseBracket("{a{b}}", lt))
	if !inc.Remove(0) || inc.Remove(0) {
		t.Fatal("remove semantics")
	}
	pos, pairs := inc.Update(0, treejoin.MustParseBracket("{a{c}}", lt))
	if pos != 1 || len(pairs) != 0 {
		t.Fatalf("update: pos=%d pairs=%v", pos, pairs)
	}
	if inc.Live() != 1 || inc.Len() != 2 {
		t.Fatalf("Live=%d Len=%d", inc.Live(), inc.Len())
	}
	got := inc.Add(treejoin.MustParseBracket("{a{c}}", lt))
	if len(got) != 1 || got[0].I != 1 {
		t.Fatalf("add after update: %v", got)
	}
}

func TestPublicTransform(t *testing.T) {
	lt := treejoin.NewLabelTable()
	a := treejoin.MustParseBracket("{a{b}{c}}", lt)
	b := treejoin.MustParseBracket("{a{b}{d}{e}}", lt)
	steps, err := treejoin.Transform(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != treejoin.Distance(a, b)+1 {
		t.Fatalf("%d steps", len(steps))
	}
	if got := treejoin.FormatBracket(steps[len(steps)-1]); got != treejoin.FormatBracket(b) {
		t.Fatalf("morph ends at %s", got)
	}
	for i := 1; i < len(steps); i++ {
		if d := treejoin.Distance(steps[i-1], steps[i]); d != 1 {
			t.Fatalf("step %d at distance %d", i, d)
		}
	}
}

func TestPublicCanonicalize(t *testing.T) {
	lt := treejoin.NewLabelTable()
	a := treejoin.MustParseBracket("{item{price{9}}{name{kettle}}}", lt)
	b := treejoin.MustParseBracket("{item{name{kettle}}{price{9}}}", lt)
	if treejoin.Distance(a, b) == 0 {
		t.Fatal("ordered distance should separate the reordered records")
	}
	if !treejoin.EqualUnordered(a, b) {
		t.Fatal("EqualUnordered rejected a field reorder")
	}
	ca, cb := treejoin.Canonicalize(a), treejoin.Canonicalize(b)
	if treejoin.Distance(ca, cb) != 0 {
		t.Fatalf("canonical forms differ: %s vs %s",
			treejoin.FormatBracket(ca), treejoin.FormatBracket(cb))
	}
	// Canonicalise-then-join finds the unordered duplicate pair.
	pairs, _ := selfJoin(t, []*treejoin.Tree{ca, cb}, 0)
	if len(pairs) != 1 {
		t.Fatalf("join on canonical forms: %v", pairs)
	}
}

func TestPublicShardedJoin(t *testing.T) {
	lt := treejoin.NewLabelTable()
	var ts []*treejoin.Tree
	for i := 0; i < 24; i++ {
		b := treejoin.NewBuilder(lt)
		r := b.Root("r")
		c := b.Child(r, string(rune('a'+i%4)))
		b.Child(c, string(rune('a'+i%3)))
		if i%2 == 0 {
			b.Child(r, "x")
		}
		ts = append(ts, b.MustBuild())
	}
	want, _ := selfJoin(t, ts, 2)
	got, _, err := mustSharded(t, 4, ts).SelfJoin(context.Background(), 2, treejoin.WithWorkers(4))
	if err != nil || len(got) != len(want) {
		t.Fatalf("sharded: %d pairs, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("sharded pair %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// eachPartCount runs f on a one-part and on a three-part corpus over ts.
func eachPartCount(t *testing.T, ts []*treejoin.Tree, f func(cp *treejoin.Corpus)) {
	t.Helper()
	for _, parts := range []int{1, 3} {
		cp, err := treejoin.NewSharded(parts, ts)
		if err != nil {
			t.Fatal(err)
		}
		f(cp)
	}
}

func topK(t *testing.T, cp *treejoin.Corpus, k int) []treejoin.Pair {
	t.Helper()
	got, err := cp.TopK(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func nearest(t *testing.T, cp *treejoin.Corpus, q *treejoin.Tree, k int) []treejoin.Match {
	t.Helper()
	got, err := cp.KNN(context.Background(), q, k)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// The history harness holds TopK and KNN to exhaustive TED over mutating
// corpora of every part count; these are the edges its draws do not reach.

func TestTopKEdgeCases(t *testing.T) {
	ts := synth.Synthetic(12, 29)
	var all []treejoin.Pair
	for i := range ts {
		for j := i + 1; j < len(ts); j++ {
			all = append(all, treejoin.Pair{I: i, J: j, Dist: treejoin.Distance(ts[i], ts[j])})
		}
	}
	slices.SortFunc(all, func(a, b treejoin.Pair) int { return cmp.Or(a.Dist-b.Dist, a.I-b.I, a.J-b.J) })
	eachPartCount(t, ts, func(cp *treejoin.Corpus) {
		if got := topK(t, cp, 0); got != nil {
			t.Fatalf("k=0 returned %v", got)
		}
		// k above the pair count returns every pair, sorted by distance.
		if got := topK(t, cp, len(all)+100); !slices.Equal(got, all) {
			t.Fatalf("k beyond pair count: %d pairs, want all %d by distance", len(got), len(all))
		}
	})
	for _, few := range [][]*treejoin.Tree{ts[:1], nil} {
		eachPartCount(t, few, func(cp *treejoin.Corpus) {
			if got := topK(t, cp, 5); got != nil {
				t.Fatalf("%d trees returned %v", len(few), got)
			}
		})
	}
}

// TestTopKIdenticalTrees: duplicates give zero-distance pairs that must rank
// first.
func TestTopKIdenticalTrees(t *testing.T) {
	lt := treejoin.NewLabelTable()
	a := treejoin.MustParseBracket("{a{b}{c{d}}}", lt)
	ts := []*treejoin.Tree{a, a.Clone(), treejoin.MustParseBracket("{x{y}}", lt), a.Clone()}
	eachPartCount(t, ts, func(cp *treejoin.Corpus) {
		got := topK(t, cp, 3)
		if len(got) != 3 || got[0].Dist+got[1].Dist+got[2].Dist != 0 {
			t.Fatalf("expected the three duplicate pairs first, got %v", got)
		}
	})
}

// TestKNNForeignQuery: the query need not be in the corpus.
func TestKNNForeignQuery(t *testing.T) {
	lt := treejoin.NewLabelTable()
	ts := []*treejoin.Tree{
		treejoin.MustParseBracket("{a{b}{c}}", lt),
		treejoin.MustParseBracket("{a{b}{c}{d}}", lt),
		treejoin.MustParseBracket("{x{y{z{w}}}}", lt),
	}
	q := treejoin.MustParseBracket("{a{b}{c}{d}{e}}", lt)
	eachPartCount(t, ts, func(cp *treejoin.Corpus) {
		want := []treejoin.Match{{Pos: 1, Dist: 1}, {Pos: 0, Dist: 2}}
		if got := nearest(t, cp, q, 2); !slices.Equal(got, want) {
			t.Fatalf("nearest = %v, want %v", got, want)
		}
	})
}

func TestKNNConcurrent(t *testing.T) {
	ts := synth.Synthetic(30, 41)
	eachPartCount(t, ts, func(cp *treejoin.Corpus) {
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ms, err := cp.KNN(context.Background(), ts[w%len(ts)], 3)
				if err != nil || len(ms) != 3 || ms[0].Dist != 0 {
					t.Errorf("query %d: %v, err %v: want three matches, itself first", w, ms, err)
				}
			}()
		}
		wg.Wait()
	})
}

func TestKNNEdgeCases(t *testing.T) {
	lt := treejoin.NewLabelTable()
	q := treejoin.MustParseBracket("{a}", lt)
	eachPartCount(t, nil, func(cp *treejoin.Corpus) {
		if got := nearest(t, cp, q, 3); got != nil {
			t.Fatalf("empty collection returned %v", got)
		}
	})
	eachPartCount(t, []*treejoin.Tree{treejoin.MustParseBracket("{b{c}}", lt)}, func(cp *treejoin.Corpus) {
		if got := nearest(t, cp, q, 5); !slices.Equal(got, []treejoin.Match{{Pos: 0, Dist: 2}}) {
			t.Fatalf("singleton collection returned %v", got)
		}
		if got := nearest(t, cp, q, 0); got != nil {
			t.Fatalf("k=0 returned %v", got)
		}
	})
}

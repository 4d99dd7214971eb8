package baseline_test

import (
	"math/rand"
	"testing"

	"treejoin/internal/baseline"
	"treejoin/internal/engine"
	"treejoin/internal/sim"
	"treejoin/internal/strdist"
	"treejoin/internal/synth"
	"treejoin/internal/ted"
	"treejoin/internal/tree"
)

// join is a baseline's self join: the sorted nested loop feeding filters (BF
// with none).
func join(ts []*tree.Tree, tau, workers int, filters ...engine.PairFilter) ([]sim.Pair, *sim.Stats) {
	return engine.Job{Source: engine.SortedLoop(), Filters: filters, Tau: tau, Workers: workers}.SelfJoin(ts)
}

// TestFigure3Bounds reproduces §2's worked example: for the Figure 3 pair,
// TED = 3, the preorder string distance is 0 and the postorder string
// distance is 2 (both as printed). For the binary branch distance the paper
// prints BIB = 6, but the bags it draws share two branches, (l1: l2, ε) and
// (l3: ε, ε), giving |X1 ∩ X2| = 2 and hence BIB = 4 + 4 − 2·2 = 4 — the
// printed 6 is an arithmetic slip (either value satisfies BIB ≤ 5·TED = 15).
func TestFigure3Bounds(t *testing.T) {
	lt := tree.NewLabelTable()
	t1 := tree.MustParseBracket("{l1{l2}{l1{l3}}}", lt)
	t2 := tree.MustParseBracket("{l1{l2{l1}{l3}}}", lt)
	if d := ted.Distance(t1, t2); d != 3 {
		t.Fatalf("TED = %d", d)
	}
	pre1 := tree.LabelSeq(t1, tree.Preorder(t1))
	pre2 := tree.LabelSeq(t2, tree.Preorder(t2))
	if d := strdist.Levenshtein(pre1, pre2); d != 0 {
		t.Errorf("preorder SED = %d, want 0", d)
	}
	post1 := tree.LabelSeq(t1, tree.Postorder(t1))
	post2 := tree.LabelSeq(t2, tree.Postorder(t2))
	if d := strdist.Levenshtein(post1, post2); d != 2 {
		t.Errorf("postorder SED = %d, want 2", d)
	}
	x1 := baseline.BranchVector(t1)
	x2 := baseline.BranchVector(t2)
	if d := baseline.BIB(x1, x2); d != 4 {
		t.Errorf("BIB = %d, want 4", d)
	}
}

// TestStringDistanceIsLowerBound: SED(pre), SED(post) ≤ TED on random pairs
// (Guha et al.'s theorem, the STR filter's correctness).
func TestStringDistanceIsLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	lt := tree.NewLabelTable()
	for i := 0; i < 300; i++ {
		a := randomTree(rng, 18, lt)
		b := randomTree(rng, 18, lt)
		d := ted.Distance(a, b)
		pre := strdist.Levenshtein(tree.LabelSeq(a, tree.Preorder(a)), tree.LabelSeq(b, tree.Preorder(b)))
		post := strdist.Levenshtein(tree.LabelSeq(a, tree.Postorder(a)), tree.LabelSeq(b, tree.Postorder(b)))
		if pre > d || post > d {
			t.Fatalf("string bound above TED: pre=%d post=%d ted=%d\n%s\n%s",
				pre, post, d, tree.FormatBracket(a), tree.FormatBracket(b))
		}
	}
}

// TestSTRFilterMatchesTraversalStrings: the STR stage, which reads the
// arena views' postorder and reversed preorder, gives the verdict of the
// banded test over tree.LabelSeq's preorder and postorder sequences, with the
// trees in either position, over random pairs and every τ from 0 past n+m.
// The verdict is a two-tree join's Stats.Stages[0]; the sorted loop never
// offers a pair outside the size window to the stage.
func TestSTRFilterMatchesTraversalStrings(t *testing.T) {
	rng := rand.New(rand.NewSource(311))
	lt := tree.NewLabelTable()
	for i := 0; i < 150; i++ {
		ts := []*tree.Tree{randomTree(rng, 18, lt), randomTree(rng, 18, lt)}
		var pre, post [2][]int32
		for k, tr := range ts {
			pre[k], post[k] = tree.LabelSeq(tr, tree.Preorder(tr)), tree.LabelSeq(tr, tree.Postorder(tr))
		}
		for tau := 0; tau <= ts[0].Size()+ts[1].Size()+1; tau++ {
			want := strdist.Bounded(pre[0], pre[1], tau) <= tau && strdist.Bounded(post[0], post[1], tau) <= tau
			offered := max(ts[0].Size()-ts[1].Size(), ts[1].Size()-ts[0].Size()) <= tau
			for _, pair := range [][]*tree.Tree{ts, {ts[1], ts[0]}} {
				_, st := join(pair, tau, 1, baseline.STRFilter())
				if in, out := st.Stages[0].In, st.Stages[0].Out(); offered && (in != 1 || (out == 1) != want) || !offered && in != 0 {
					t.Fatalf("τ=%d: STR took %d pairs and passed %d, traversal strings say %v (offered %v)\n%s\n%s",
						tau, in, out, want, offered, tree.FormatBracket(pair[0]), tree.FormatBracket(pair[1]))
				}
			}
		}
	}
}

// TestBIBBound: BIB(T1,T2) ≤ 5·TED(T1,T2) on random pairs (Yang et al.'s
// theorem, the SET filter's correctness).
func TestBIBBound(t *testing.T) {
	rng := rand.New(rand.NewSource(307))
	lt := tree.NewLabelTable()
	for i := 0; i < 300; i++ {
		a := randomTree(rng, 18, lt)
		b := randomTree(rng, 18, lt)
		d := ted.Distance(a, b)
		bib := baseline.BIB(baseline.BranchVector(a), baseline.BranchVector(b))
		if bib > 5*d {
			t.Fatalf("BIB %d > 5·TED %d\n%s\n%s", bib, 5*d, tree.FormatBracket(a), tree.FormatBracket(b))
		}
	}
}

func TestBranchVectorProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(311))
	lt := tree.NewLabelTable()
	for i := 0; i < 100; i++ {
		a := randomTree(rng, 30, lt)
		x := baseline.BranchVector(a)
		if len(x) != a.Size() {
			t.Fatalf("branch vector length %d != size %d", len(x), a.Size())
		}
		if d := baseline.BIB(x, x); d != 0 {
			t.Fatalf("BIB(x,x) = %d", d)
		}
		b := randomTree(rng, 30, lt)
		y := baseline.BranchVector(b)
		if baseline.BIB(x, y) != baseline.BIB(y, x) {
			t.Fatal("BIB asymmetric")
		}
	}
}

func TestBruteForceMatchesNaive(t *testing.T) {
	ts := synth.Generate(synth.Params{
		N: 30, AvgSize: 15, SizeJitter: 0.4, MaxFanout: 4, MaxDepth: 6,
		Labels: 6, DepthBias: 0, Cluster: 3, Decay: 0.08, Seed: 5})
	for tau := 0; tau <= 3; tau++ {
		got, stats := join(ts, tau, 0)
		// Naive double loop without any ordering.
		var want int
		for i := 0; i < len(ts); i++ {
			for j := i + 1; j < len(ts); j++ {
				if ted.Distance(ts[i], ts[j]) <= tau {
					want++
				}
			}
		}
		if len(got) != want {
			t.Fatalf("τ=%d: %d pairs, naive %d", tau, len(got), want)
		}
		for _, p := range got {
			if p.I >= p.J {
				t.Fatalf("unnormalised pair %v", p)
			}
			if p.Dist > tau {
				t.Fatalf("overszied distance %v", p)
			}
		}
		if stats.Results != int64(len(got)) {
			t.Fatalf("stats results %d != %d", stats.Results, len(got))
		}
	}
}

// TestBaselinesParallelWorkers: worker pools do not change baseline results.
func TestBaselinesParallelWorkers(t *testing.T) {
	ts := synth.Synthetic(60, 9)
	for _, tau := range []int{1, 3} {
		s1, _ := join(ts, tau, 0, baseline.STRFilter())
		s2, _ := join(ts, tau, 4, baseline.STRFilter())
		if len(s1) != len(s2) {
			t.Fatalf("STR workers changed results")
		}
		e1, _ := join(ts, tau, 0, baseline.SETFilter())
		e2, _ := join(ts, tau, 4, baseline.SETFilter())
		if len(e1) != len(e2) {
			t.Fatalf("SET workers changed results")
		}
	}
}

// TestFilterSelectivityOrdering: on clustered synthetic data the candidate
// counts follow the paper's Figure 11 ordering: REL ≤ STR/PRT ≤ SET ≤ size
// filter only.
func TestFilterSelectivityOrdering(t *testing.T) {
	ts := synth.Synthetic(150, 13)
	for _, tau := range []int{1, 2, 3} {
		_, bf := join(ts, tau, 0)
		_, str := join(ts, tau, 0, baseline.STRFilter())
		_, set := join(ts, tau, 0, baseline.SETFilter())
		if str.Candidates > bf.Candidates {
			t.Errorf("τ=%d: STR candidates %d above size-filter count %d", tau, str.Candidates, bf.Candidates)
		}
		if set.Candidates > bf.Candidates {
			t.Errorf("τ=%d: SET candidates %d above size-filter count %d", tau, set.Candidates, bf.Candidates)
		}
		if str.Results != set.Results || str.Results != bf.Results {
			t.Errorf("τ=%d: result counts disagree", tau)
		}
		if str.Candidates < str.Results || set.Candidates < set.Results {
			t.Errorf("τ=%d: candidates below results", tau)
		}
	}
}

func randomTree(rng *rand.Rand, maxN int, lt *tree.LabelTable) *tree.Tree {
	n := 1 + rng.Intn(maxN)
	b := tree.NewBuilder(lt)
	b.Root(string(rune('a' + rng.Intn(4))))
	for i := 1; i < n; i++ {
		b.Child(int32(rng.Intn(i)), string(rune('a'+rng.Intn(4))))
	}
	return b.MustBuild()
}

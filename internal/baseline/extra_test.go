package baseline_test

import (
	"math/rand"
	"testing"

	"treejoin/internal/baseline"
	"treejoin/internal/engine"
	"treejoin/internal/synth"
	"treejoin/internal/ted"
	"treejoin/internal/tree"
)

// TestHistLowerBound: every statistic bound stays at or below the exact TED
// on random pairs — the HIST filter's correctness (Kailing et al.).
func TestHistLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	lt := tree.NewLabelTable()
	for i := 0; i < 400; i++ {
		a := randomTree(rng, 20, lt)
		b := randomTree(rng, 20, lt)
		d := ted.Distance(a, b)
		lb := baseline.HistLowerBound(baseline.NewHistProfile(a), baseline.NewHistProfile(b))
		if lb > d {
			t.Fatalf("hist bound %d > TED %d\n%s\n%s",
				lb, d, tree.FormatBracket(a), tree.FormatBracket(b))
		}
	}
}

// TestHistProfileIdentity: the bound of a tree against itself is zero, and
// the bound is symmetric.
func TestHistProfileIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(409))
	lt := tree.NewLabelTable()
	for i := 0; i < 100; i++ {
		a := randomTree(rng, 30, lt)
		pa := baseline.NewHistProfile(a)
		if lb := baseline.HistLowerBound(pa, pa); lb != 0 {
			t.Fatalf("self bound %d", lb)
		}
		b := randomTree(rng, 30, lt)
		pb := baseline.NewHistProfile(b)
		if baseline.HistLowerBound(pa, pb) != baseline.HistLowerBound(pb, pa) {
			t.Fatal("hist bound asymmetric")
		}
	}
}

// TestHistBoundFigure3 pins the bound on §2's worked example (TED = 3): the
// two trees share size, label multiset, leaf count, height, *and* degree
// histogram ({0:2, 1:1, 2:1} both) — every HIST statistic is blind to the
// pair, so the bound is 0 and HIST cannot prune it at any τ. This is
// exactly the weakness of statistics filters the traversal-string and
// subgraph filters fix (both separate this pair).
func TestHistBoundFigure3(t *testing.T) {
	lt := tree.NewLabelTable()
	t1 := tree.MustParseBracket("{l1{l2}{l1{l3}}}", lt)
	t2 := tree.MustParseBracket("{l1{l2{l1}{l3}}}", lt)
	lb := baseline.HistLowerBound(baseline.NewHistProfile(t1), baseline.NewHistProfile(t2))
	if lb != 0 {
		t.Fatalf("hist bound = %d, want 0 (all statistics coincide)", lb)
	}
}

// TestEulerString pins the tour on a hand-built tree and checks the length
// invariant on random trees.
func TestEulerString(t *testing.T) {
	lt := tree.NewLabelTable()
	// {a{b}{c}}: tour a b /b c /c /a with open = 2L, close = 2L+1.
	tr := tree.MustParseBracket("{a{b}{c}}", lt)
	a, b, c := mustID(t, lt, "a"), mustID(t, lt, "b"), mustID(t, lt, "c")
	want := []int32{2 * a, 2 * b, 2*b + 1, 2 * c, 2*c + 1, 2*a + 1}
	got := baseline.EulerString(tr)
	if len(got) != len(want) {
		t.Fatalf("euler length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("euler[%d] = %d, want %d (%v)", i, got[i], want[i], got)
		}
	}
	rng := rand.New(rand.NewSource(419))
	for i := 0; i < 100; i++ {
		tr := randomTree(rng, 40, lt)
		if e := baseline.EulerString(tr); len(e) != 2*tr.Size() {
			t.Fatalf("euler length %d, want %d", len(e), 2*tr.Size())
		}
	}
}

func mustID(t *testing.T, lt *tree.LabelTable, name string) int32 {
	t.Helper()
	id, ok := lt.Lookup(name)
	if !ok {
		t.Fatalf("label %q not interned", name)
	}
	return id
}

// TestEulerLowerBound: ⌈sed(Euler)/2⌉ ≤ TED on random pairs (Akutsu et
// al.'s theorem, the EUL filter's correctness).
func TestEulerLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(421))
	lt := tree.NewLabelTable()
	for i := 0; i < 400; i++ {
		a := randomTree(rng, 20, lt)
		b := randomTree(rng, 20, lt)
		d := ted.Distance(a, b)
		// A full-width band keeps the bound exact for the test.
		lb := baseline.EulerLowerBound(baseline.EulerString(a), baseline.EulerString(b), 2*(a.Size()+b.Size()))
		if lb > d {
			t.Fatalf("euler bound %d > TED %d\n%s\n%s",
				lb, d, tree.FormatBracket(a), tree.FormatBracket(b))
		}
	}
}

// TestExtraBaselinesMatchOracle: HIST and EUL return exactly the brute-force
// result set on clustered collections across thresholds.
func TestExtraBaselinesMatchOracle(t *testing.T) {
	ts := synth.Synthetic(120, 17)
	for tau := 0; tau <= 3; tau++ {
		want, _ := join(ts, tau, 0)
		for _, m := range []struct {
			name   string
			filter engine.PairFilter
		}{
			{"HIST", baseline.HISTFilter()},
			{"EUL", baseline.EULFilter()},
		} {
			got, stats := join(ts, tau, 0, m.filter)
			if len(got) != len(want) {
				t.Fatalf("τ=%d: %s returned %d pairs, oracle %d", tau, m.name, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("τ=%d: %s pair %d = %v, oracle %v", tau, m.name, i, got[i], want[i])
				}
			}
			if stats.Candidates < stats.Results {
				t.Fatalf("τ=%d: %s candidates below results", tau, m.name)
			}
		}
	}
}

// TestExtraBaselinesCandidateOrdering: HIST and EUL candidates stay within
// the size-filter count, and EUL prunes at least as well as the size filter.
func TestExtraBaselinesCandidateOrdering(t *testing.T) {
	ts := synth.Synthetic(120, 19)
	for _, tau := range []int{1, 2, 3} {
		_, bf := join(ts, tau, 0)
		_, hist := join(ts, tau, 0, baseline.HISTFilter())
		_, eul := join(ts, tau, 0, baseline.EULFilter())
		if hist.Candidates > bf.Candidates {
			t.Errorf("τ=%d: HIST candidates %d above size-filter %d", tau, hist.Candidates, bf.Candidates)
		}
		if eul.Candidates > bf.Candidates {
			t.Errorf("τ=%d: EUL candidates %d above size-filter %d", tau, eul.Candidates, bf.Candidates)
		}
		if hist.Results != bf.Results || eul.Results != bf.Results {
			t.Errorf("τ=%d: result counts disagree", tau)
		}
	}
}

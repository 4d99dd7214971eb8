package ted

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"treejoin/internal/tree"
)

// randTree builds a random tree of at most maxN nodes over a small alphabet.
func randTree(rng *rand.Rand, maxN, alphabet int, lt *tree.LabelTable) *tree.Tree {
	n := 1 + rng.Intn(maxN)
	b := tree.NewBuilder(lt)
	lab := func() string { return string(rune('a' + rng.Intn(alphabet))) }
	b.Root(lab())
	for i := 1; i < n; i++ {
		b.Child(int32(rng.Intn(i)), lab())
	}
	return b.MustBuild()
}

// mutate applies k random node insertions/relabelings to t, producing a tree
// at TED ≤ k — the banded verifier's sweet spot (near-duplicates).
func mutate(rng *rand.Rand, t *tree.Tree, k, alphabet int, lt *tree.LabelTable) *tree.Tree {
	b := tree.NewBuilder(lt)
	lab := func() string { return string(rune('a' + rng.Intn(alphabet))) }
	var cp func(src, dst int32)
	cp = func(src, dst int32) {
		for c := t.Nodes[src].FirstChild; c != tree.None; c = t.Nodes[c].NextSibling {
			id := b.ChildID(dst, t.Nodes[c].Label)
			cp(c, id)
		}
	}
	root := b.RootID(t.Nodes[t.Root()].Label)
	cp(t.Root(), root)
	out := b.MustBuild()
	for e := 0; e < k; e++ {
		nodes := out.Nodes
		v := int32(rng.Intn(len(nodes)))
		if rng.Intn(2) == 0 { // relabel
			out.Nodes[v].Label = lt.Intern(lab())
		} else { // append a leaf child
			nb := tree.NewBuilder(lt)
			var cp2 func(src, dst int32)
			cp2 = func(src, dst int32) {
				for c := out.Nodes[src].FirstChild; c != tree.None; c = out.Nodes[c].NextSibling {
					cp2(c, nb.ChildID(dst, out.Nodes[c].Label))
				}
				if src == v {
					nb.Child(dst, lab())
				}
			}
			r := nb.RootID(out.Nodes[out.Root()].Label)
			cp2(out.Root(), r)
			out = nb.MustBuild()
		}
	}
	return out
}

// tauSweep builds the τ values the property tests exercise for a pair with
// true distance d: 0, around d (exactly at, just below, just above), and at
// and beyond the trivial maximum n1+n2.
func tauSweep(d, max int) []int {
	taus := []int{0, 1, d - 1, d, d + 1, d + 3, max, max + 5}
	out := taus[:0]
	for _, tau := range taus {
		if tau >= 0 {
			out = append(out, tau)
		}
	}
	return out
}

// TestBandedAgreesWithOracleTauSweep is the τ-sweep property test: for
// random tree pairs, the banded verifier must agree with the unbounded
// Zhang–Shasha oracle on the ≤ τ verdict at every τ — including τ=0, τ
// exactly at the true distance, and τ ≥ the maximum possible distance — and
// report the exact distance whenever the verdict is positive. The one-off
// tree-level wrapper DistanceBounded is held to the same contract, negative
// thresholds included. Over tiny alphabets many optimal string alignments
// are not tree mappings, which the certificate must refuse.
func TestBandedAgreesWithOracleTauSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := AcquireScratch()
	defer ReleaseScratch(s)
	check := func(iter int, t1, t2 *tree.Tree, taus ...int) {
		t.Helper()
		want := ZhangShasha(t1, t2) // unbounded oracle
		vs := BuildViews([]*tree.Tree{t1, t2})
		if taus == nil {
			taus = append(tauSweep(want, t1.Size()+t2.Size()), -1)
		}
		for _, tau := range taus {
			got, ok := DistanceBoundedView(vs[0], vs[1], tau, s, nil)
			if ok != (tau >= 0 && want <= tau) {
				t.Fatalf("iter %d τ=%d: banded verdict %v, oracle distance %d", iter, tau, ok, want)
			}
			if ok && got != want {
				t.Fatalf("iter %d τ=%d: banded distance %d, oracle %d", iter, tau, got, want)
			}
			if !ok && got != tau+1 {
				t.Fatalf("iter %d τ=%d: negative verdict with distance %d, want τ+1", iter, tau, got)
			}
			if gotW, okW := DistanceBounded(t1, t2, tau); okW != ok || gotW != got {
				t.Fatalf("iter %d τ=%d: DistanceBounded (%d,%v), view path (%d,%v)", iter, tau, gotW, okW, got, ok)
			}
		}
	}
	// Independent random pairs: mostly distant, exercising aborts and skips.
	for iter := 0; iter < 250; iter++ {
		lt := tree.NewLabelTable()
		check(iter, randTree(rng, 14, 3, lt), randTree(rng, 14, 3, lt))
	}
	// Near-duplicate pairs: small true distances on larger trees, exercising
	// the exact-within-band path.
	for iter := 0; iter < 120; iter++ {
		lt := tree.NewLabelTable()
		t1 := randTree(rng, 40, 4, lt)
		t2 := mutate(rng, t1, rng.Intn(4), 4, lt)
		check(1000+iter, t1, t2)
	}
	for iter := 0; iter < 4000; iter++ {
		t1, t2 := sweepPair(rng, iter, 9, 1+rng.Intn(3))
		check(2000+iter, t1, t2, 0, 1, 2, 3, 4, 5)
	}
}

// FuzzVerifyBounded holds DistanceBounded — bounds, screen, certificate, DP —
// to ZhangShasha's verdict and distance on two bracket trees and a τ.
func FuzzVerifyBounded(f *testing.F) {
	f.Add("{a{b}{c}}", "{a{b{c}}}", 2)
	f.Add("{a{a}{a{a}}}", "{a{a{a}}{a}}", 1)
	f.Fuzz(func(t *testing.T, s1, s2 string, tau int) {
		lt := tree.NewLabelTable()
		t1, err1 := tree.ParseBracket(s1, lt)
		t2, err2 := tree.ParseBracket(s2, lt)
		if err1 != nil || err2 != nil || t1.Size() > 40 || t2.Size() > 40 {
			return
		}
		tau %= 50
		want := ZhangShasha(t1, t2)
		if d, ok := DistanceBounded(t1, t2, tau); ok != (tau >= 0 && want <= tau) || ok && d != want {
			t.Fatalf("τ=%d: DistanceBounded (%d,%v), oracle distance %d", tau, d, ok, want)
		}
	})
}

// TestBandedCountersFire makes sure the instrumentation actually counts: a
// pair pruned by the lower bounds records DPAvoided, and a distant
// same-size pair records band aborts (and, with scattered leaves, keyroot
// skips).
func TestBandedCountersFire(t *testing.T) {
	lt := tree.NewLabelTable()
	small := tree.MustParseBracket("{a}", lt)
	big := tree.MustParseBracket("{a{b{c}}{d}{e}}", lt)
	rng := rand.New(rand.NewSource(3))
	t1 := randTree(rng, 30, 2, lt)
	t2 := mutate(rng, t1, 12, 2, lt)
	vs := BuildViews([]*tree.Tree{small, big, t1, t2})
	s := AcquireScratch()
	defer ReleaseScratch(s)
	var tc Counters
	if _, ok := DistanceBoundedView(vs[0], vs[1], 1, s, &tc); ok {
		t.Fatal("size-distant pair accepted")
	}
	if tc.DPAvoided.Load() != 1 {
		t.Fatalf("DPAvoided = %d, want 1", tc.DPAvoided.Load())
	}
	tc = Counters{}
	_, _ = DistanceBoundedView(vs[2], vs[3], 0, s, &tc)
	if tc.BandAborts.Load() == 0 && tc.KeyrootsSkipped.Load() == 0 && tc.DPAvoided.Load() == 0 {
		t.Fatal("no pruning counter fired on a distant pair at τ=0")
	}
}

// TestPooledScratchConcurrent hammers the one-off wrapper — which borrows its
// DP scratch from the pool, at thresholds that keep changing the band width
// it is laid out for — from many goroutines and asserts identical results to the
// serial run over views. Run under -race this is the detector test for the
// sync.Pool reuse.
func TestPooledScratchConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	lt := tree.NewLabelTable()
	const nTrees = 14
	trees := make([]*tree.Tree, nTrees)
	for i := range trees {
		if i%2 == 1 {
			trees[i] = mutate(rng, trees[i-1], 1+rng.Intn(3), 3, lt)
		} else {
			trees[i] = randTree(rng, 22, 3, lt)
		}
	}
	vs := BuildViews(trees)
	type key struct{ i, j, tau int }
	serial := make(map[key]string)
	taus := []int{0, 1, 2, 5}
	seq := AcquireScratch()
	for i := 0; i < nTrees; i++ {
		for j := i + 1; j < nTrees; j++ {
			for _, tau := range taus {
				d, ok := DistanceBoundedView(vs[i], vs[j], tau, seq, nil)
				serial[key{i, j, tau}] = fmt.Sprint(d, ok)
			}
		}
	}
	ReleaseScratch(seq)
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for n := 0; n < 400; n++ {
				i, j := r.Intn(nTrees), r.Intn(nTrees)
				if i == j {
					continue
				}
				if i > j {
					i, j = j, i
				}
				tau := taus[r.Intn(len(taus))]
				d, ok := DistanceBounded(trees[i], trees[j], tau)
				if got := fmt.Sprint(d, ok); got != serial[key{i, j, tau}] {
					select {
					case errs <- fmt.Sprintf("pair (%d,%d) τ=%d: concurrent %s, serial %s", i, j, tau, got, serial[key{i, j, tau}]):
					default:
					}
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

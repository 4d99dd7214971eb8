package ted

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"treejoin/internal/strdist"
	"treejoin/internal/tree"
)

// TestBuildViewsMatchesPrepare checks the arena views against the oracle's
// own preparation: left arrays against prepare(t), mirrored arrays against
// prepare(Mirror(t)), keyroots of both directions, strategy costs, the sorted
// label multiset, and the depth and subtree size of the serialised cells
// against naive recomputation from the tree.
func TestBuildViewsMatchesPrepare(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 200; iter++ {
		lt := tree.NewLabelTable()
		tr := randTree(rng, 40, 4, lt)
		v := BuildViews([]*tree.Tree{tr})[0]
		n := tr.Size()
		if v.Size() != n {
			t.Fatalf("iter %d: view size %d, tree size %d", iter, v.Size(), n)
		}

		checkDir := func(dir string, p *prep, labels, lml, kr []int32) {
			for i := range p.labels {
				if labels[i] != p.labels[i] || lml[i] != p.lml[i] {
					t.Fatalf("iter %d: %s arrays differ at %d: label %d/%d lml %d/%d",
						iter, dir, i, labels[i], p.labels[i], lml[i], p.lml[i])
				}
			}
			if len(kr) != len(p.keyroots) {
				t.Fatalf("iter %d: %s keyroot count %d, want %d", iter, dir, len(kr), len(p.keyroots))
			}
			for i := range kr {
				if kr[i] != p.keyroots[i] {
					t.Fatalf("iter %d: %s keyroots differ at %d: %d vs %d", iter, dir, i, kr[i], p.keyroots[i])
				}
			}
		}
		checkDir("left", prepare(tr), v.Labels, v.Lml, v.Keyroots)
		checkDir("right", prepare(Mirror(tr)), v.RLabels, v.Rml, v.RKeyroots)

		wantL, wantR := strategyCost(tr)
		if v.CostL != wantL || v.CostR != wantR {
			t.Fatalf("iter %d: costs (%d,%d), want (%d,%d)", iter, v.CostL, v.CostR, wantL, wantR)
		}
		sorted := slices.Clone(prepare(tr).labels)
		slices.Sort(sorted)
		if !slices.Equal(v.SortedLabels, sorted) {
			t.Fatalf("iter %d: sorted labels %v, want %v", iter, v.SortedLabels, sorted)
		}

		// Depth and subtree size against naive per-node recomputation; they
		// exist only in the serialised cells (TestViewCellsLayout checks the
		// parents there).
		cells := AppendViewCells(nil, v)
		head := 4*n + 4*len(v.Keyroots)
		depths, subtreeSizes := cells[head:head+n], cells[head+3*n:head+4*n]
		post := tree.Postorder(tr)
		sizes := tree.SubtreeSizes(tr)
		for i, u := range post {
			depth := int32(0)
			for p := tr.Nodes[u].Parent; p != tree.None; p = tr.Nodes[p].Parent {
				depth++
			}
			if depths[i] != depth {
				t.Fatalf("iter %d: depth[%d]=%d, want %d", iter, i, depths[i], depth)
			}
			if subtreeSizes[i] != sizes[u] {
				t.Fatalf("iter %d: subtreeSize[%d]=%d, want %d", iter, i, subtreeSizes[i], sizes[u])
			}
		}
	}
}

// TestArenaAgreesWithOracleTauSweep is the arena verifier's equivalence
// property: for random pairs (including mutated near-duplicates, where bands
// matter) and every τ from 0 past the true distance, the arena DP and the
// unbounded Zhang–Shasha oracle agree on verdict AND distance — in
// strategy-driven mode and with each decomposition forced.
func TestArenaAgreesWithOracleTauSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := AcquireScratch()
	defer ReleaseScratch(s)
	for iter := 0; iter < 150; iter++ {
		t1, t2 := sweepPair(rng, iter, 28, 3)
		exact := ZhangShasha(t1, t2)
		vs := BuildViews([]*tree.Tree{t1, t2})
		for tau := 0; tau <= exact+2; tau++ {
			for _, dec := range []Decomp{DecompAuto, DecompLeft, DecompRight} {
				checkVerdict(t, vs, tau, dec, s, nil, exact)
			}
		}
	}
}

// sweepPair draws one pair of trees of at most maxN nodes over a fresh label
// table of the given alphabet: a mutated near-duplicate on even iterations,
// an independent pair on odd ones.
func sweepPair(rng *rand.Rand, iter, maxN, alphabet int) (t1, t2 *tree.Tree) {
	lt := tree.NewLabelTable()
	t1 = randTree(rng, maxN, alphabet, lt)
	if iter%2 == 0 {
		return t1, mutate(rng, t1, 1+rng.Intn(4), alphabet, lt)
	}
	return t1, randTree(rng, maxN, alphabet, lt)
}

// checkVerdict requires the tri-state contract of one verification against
// the oracle distance exact.
func checkVerdict(t *testing.T, vs []*TreeView, tau int, dec Decomp, s *VerifyScratch, tc *Counters, exact int) {
	t.Helper()
	d, ok := DistanceBoundedViewDecomp(vs[0], vs[1], tau, dec, s, tc)
	want := tau + 1
	if exact <= tau {
		want = exact
	}
	if ok != (exact <= tau) || d != want {
		t.Fatalf("τ=%d dec=%d: got (%d,%v), oracle distance %d\n%s\n%s", tau, dec, d, ok, exact,
			tree.FormatBracket(vs[0].T), tree.FormatBracket(vs[1].T))
	}
}

// TestArenaOverflowRunsUnboundedDP lowers the int16 band limit so that
// ordinary thresholds overflow it, and requires the overflow path — the
// unbounded DP over the chosen decomposition's view arrays — to keep the
// contract for every τ up to past the trivial maximum n1+n2, under all three
// decomposition modes, counting the forced direction's strategy. Below the
// limit DecompAuto may certify instead: every pair past the screens is
// certified or runs one DP, and a forced direction is never certified.
func TestArenaOverflowRunsUnboundedDP(t *testing.T) {
	defer func(old int) { maxViewBand = old }(maxViewBand)
	maxViewBand = 3
	rng := rand.New(rand.NewSource(13))
	s := AcquireScratch()
	defer ReleaseScratch(s)
	for iter := 0; iter < 60; iter++ {
		t1, t2 := sweepPair(rng, iter, 12, 3)
		exact := ZhangShasha(t1, t2)
		vs := BuildViews([]*tree.Tree{t1, t2})
		for tau := 0; tau <= t1.Size()+t2.Size()+1; tau++ {
			if d, ok := DistanceBounded(t1, t2, tau); ok != (exact <= tau) || ok && d != exact {
				t.Fatalf("iter %d τ=%d: DistanceBounded (%d,%v), oracle distance %d", iter, tau, d, ok, exact)
			}
			for _, dec := range []Decomp{DecompAuto, DecompLeft, DecompRight} {
				var tc Counters
				checkVerdict(t, vs, tau, dec, s, &tc, exact)
				l, r, c := tc.StrategyLeft.Load(), tc.StrategyRight.Load(), tc.Certified.Load()
				reached := tc.DPAvoided.Load() == 0
				switch {
				case !reached && l+r+c != 0, reached && l+r+c != 1, dec != DecompAuto && c != 0:
					t.Fatalf("iter %d τ=%d dec=%d: strategy counts (%d,%d), DP reached: %v", iter, tau, dec, l, r, reached)
				case reached && dec == DecompLeft && l != 1, reached && dec == DecompRight && r != 1:
					t.Fatalf("iter %d τ=%d: forced dec=%d counted as (%d,%d)", iter, tau, dec, l, r)
				}
			}
		}
	}
}

// TestViewRLabelsIsReversedPreorder pins the fact the traversal-string screen
// rests on: the mirrored postorder the view already holds for the right-path
// decomposition is the preorder label string read backwards (and Labels is
// the postorder string), so the screen needs no array of its own.
func TestViewRLabelsIsReversedPreorder(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	lt := tree.NewLabelTable()
	var trees []*tree.Tree
	for i := 0; i < 200; i++ {
		trees = append(trees, randTree(rng, 40, 1+rng.Intn(5), lt))
	}
	for i, v := range BuildViews(trees) {
		tr := trees[i]
		rev := slices.Clone(v.RLabels)
		slices.Reverse(rev)
		if want := tree.LabelSeq(tr, tree.Preorder(tr)); !slices.Equal(rev, want) {
			t.Fatalf("tree %d: reversed RLabels %v, preorder %v", i, rev, want)
		}
		if want := tree.LabelSeq(tr, tree.Postorder(tr)); !slices.Equal(v.Labels, want) {
			t.Fatalf("tree %d: Labels %v, postorder %v", i, v.Labels, want)
		}
	}
}

// TestArenaCountersBruteForce checks the pruning and strategy counters
// against expectations computed the slow way: DPAvoided from the size and
// label bounds and the unbanded Levenshtein distances of the preorder and
// postorder label strings (SeqRejects: the pairs only the strings settle),
// KeyrootsSkipped by counting the keyroot pairs of the chosen
// decomposition whose leftmost leaves lie more than the band apart, and the
// strategy split. Every pair past the screens is certified — at the oracle's
// distance — or runs one DP.
func TestArenaCountersBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	s := AcquireScratch()
	defer ReleaseScratch(s)
	lt := tree.NewLabelTable()
	var trees []*tree.Tree
	for i := 0; i < 12; i++ {
		trees = append(trees, randTree(rng, 30, 3, lt))
	}
	vs := BuildViews(trees)
	pre, post := make([][]int32, len(trees)), make([][]int32, len(trees))
	for i, tr := range trees {
		pre[i], post[i] = tree.LabelSeq(tr, tree.Preorder(tr)), tree.LabelSeq(tr, tree.Postorder(tr))
	}
	for _, tau := range []int{1, 3, 6} {
		var tc Counters
		var avoided, seqRejects, certified, dps, skipped, left int64
		for i := range trees {
			for j := i + 1; j < len(trees); j++ {
				was := tc.Certified.Load()
				d, _ := DistanceBoundedView(vs[i], vs[j], tau, s, &tc)
				if tc.Certified.Load() > was {
					if want := ZhangShasha(trees[i], trees[j]); d != want {
						t.Fatalf("τ=%d: certified distance %d, oracle %d", tau, d, want)
					}
					certified++
					continue
				}
				if SizeLowerBound(trees[i], trees[j]) > tau || LabelLowerBound(trees[i], trees[j]) > tau {
					avoided++
					continue
				}
				if strdist.Levenshtein(pre[i], pre[j]) > tau || strdist.Levenshtein(post[i], post[j]) > tau {
					avoided++
					seqRejects++
					continue
				}
				dps++
				dec := chooseDecomp(vs[i].CostL, vs[i].CostR, vs[j].CostL, vs[j].CostR)
				if dec == DecompLeft {
					left++
				}
				a, b := vs[i].zsArrays(dec), vs[j].zsArrays(dec)
				band := int32(min(tau, len(a.labels)+len(b.labels)))
				for _, ka := range a.keyroots {
					for _, kb := range b.keyroots {
						if d := a.lml[ka] - b.lml[kb]; d > band || -d > band {
							skipped++
						}
					}
				}
			}
		}
		if got := tc.DPAvoided.Load(); got != avoided {
			t.Fatalf("τ=%d: DPAvoided %d, want %d", tau, got, avoided)
		}
		if got := tc.SeqRejects.Load(); got != seqRejects {
			t.Fatalf("τ=%d: SeqRejects %d, want %d", tau, got, seqRejects)
		}
		if got := tc.KeyrootsSkipped.Load(); got != skipped {
			t.Fatalf("τ=%d: KeyrootsSkipped %d, want %d", tau, got, skipped)
		}
		if l, r := tc.StrategyLeft.Load(), tc.StrategyRight.Load(); l != left || l+r != dps || tau == 6 && certified == 0 {
			t.Fatalf("τ=%d: strategy counts (%d,%d), want %d left of %d DPs; %d certified", tau, l, r, left, dps, certified)
		}
	}
}

// TestArenaVerifyZeroAllocs is the per-pair allocation gate at its source:
// with views built and a scratch warmed, deciding a batch of candidates
// allocates nothing.
func TestArenaVerifyZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	lt := tree.NewLabelTable()
	var trees []*tree.Tree
	for i := 0; i < 10; i++ {
		trees = append(trees, randTree(rng, 40, 4, lt))
	}
	vs := BuildViews(trees)
	s := AcquireScratch()
	defer ReleaseScratch(s)
	for i := range trees { // warm the scratch to steady-state capacity
		for j := i + 1; j < len(trees); j++ {
			DistanceBoundedView(vs[i], vs[j], 6, s, nil)
		}
	}
	var tc Counters
	allocs := testing.AllocsPerRun(20, func() {
		for i := range trees {
			for j := i + 1; j < len(trees); j++ {
				DistanceBoundedView(vs[i], vs[j], 6, s, &tc)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("arena verify allocated %.1f times per batch, want 0", allocs)
	}
}

// TestArenaScratchConcurrent hammers pooled scratches from many goroutines
// over a shared arena (the race detector patrols this in CI): every result
// must still match the sequential verdict.
func TestArenaScratchConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	lt := tree.NewLabelTable()
	var trees []*tree.Tree
	for i := 0; i < 16; i++ {
		trees = append(trees, randTree(rng, 24, 3, lt))
	}
	vs := BuildViews(trees)
	const tau = 4
	type cand struct{ i, j, want int }
	var cands []cand
	seq := AcquireScratch()
	for i := range trees {
		for j := i + 1; j < len(trees); j++ {
			d, _ := DistanceBoundedView(vs[i], vs[j], tau, seq, nil)
			cands = append(cands, cand{i, j, d})
		}
	}
	ReleaseScratch(seq)
	var wg sync.WaitGroup
	var tc Counters
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := AcquireScratch()
			defer ReleaseScratch(s)
			for _, c := range cands {
				if d, _ := DistanceBoundedView(vs[c.i], vs[c.j], tau, s, &tc); d != c.want {
					t.Errorf("pair (%d,%d): got %d, want %d", c.i, c.j, d, c.want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestArenaTinyAndEqualTrees pins the edge geometry: single-node trees,
// identical trees (distance 0 at τ=0, where the band is one diagonal), and
// maximally distant ones.
func TestArenaTinyAndEqualTrees(t *testing.T) {
	lt := tree.NewLabelTable()
	b := tree.NewBuilder(lt)
	b.Root("a")
	one := b.MustBuild()
	b2 := tree.NewBuilder(lt)
	b2.Root("b")
	oneB := b2.MustBuild()
	rng := rand.New(rand.NewSource(77))
	big := randTree(rng, 30, 3, lt)
	vs := BuildViews([]*tree.Tree{one, oneB, big, big})
	s := AcquireScratch()
	defer ReleaseScratch(s)
	if d, ok := DistanceBoundedView(vs[0], vs[0], 0, s, nil); !ok || d != 0 {
		t.Fatalf("self distance at τ=0: (%d,%v)", d, ok)
	}
	if d, ok := DistanceBoundedView(vs[0], vs[1], 0, s, nil); ok || d != 1 {
		t.Fatalf("relabel at τ=0: (%d,%v), want (1,false)", d, ok)
	}
	if d, ok := DistanceBoundedView(vs[0], vs[1], 1, s, nil); !ok || d != 1 {
		t.Fatalf("relabel at τ=1: (%d,%v), want (1,true)", d, ok)
	}
	if d, ok := DistanceBoundedView(vs[2], vs[3], 0, s, nil); !ok || d != 0 {
		t.Fatalf("identical trees at τ=0: (%d,%v)", d, ok)
	}
	want := ZhangShasha(one, big)
	if d, ok := DistanceBoundedView(vs[0], vs[2], want, s, nil); !ok || d != want {
		t.Fatalf("leaf vs big at τ=%d: (%d,%v)", want, d, ok)
	}
}

package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"treejoin/internal/lcrs"
	"treejoin/internal/tree"
)

// figure9Tree returns the general tree whose LC-RS binary representation is
// the 11-node binary tree of the paper's Figure 9 (postorder N5 N6 N4 N3 N10
// N9 N11 N8 N7 N2 N1).
func figure9Tree(lt *tree.LabelTable) *tree.Tree {
	return tree.MustParseBracket("{l1{l2{l3{l4{l5}}{l6}}}{l7{l8{l9{l10}}}{l11}}}", lt)
}

func nodeByLabel(t *tree.Tree, name string) int32 {
	for id := range t.Nodes {
		if t.Label(int32(id)) == name {
			return int32(id)
		}
	}
	panic("label not found: " + name)
}

func TestFigure9Partitionable(t *testing.T) {
	lt := tree.NewLabelTable()
	g := figure9Tree(lt)
	b := lcrs.Build(g)
	if b.Size() != 11 {
		t.Fatalf("size = %d", b.Size())
	}
	st := &partitionState{}
	if !partitionable(b, 3, 3, st, nil) {
		t.Fatal("Figure 9 tree should be (3,3)-partitionable")
	}
	if partitionable(b, 3, 4, st, nil) {
		t.Fatal("Figure 9 tree should not be (3,4)-partitionable")
	}
	if got := MaxMinSize(b, 3); got != 3 {
		t.Fatalf("MaxMinSize = %d, want 3", got)
	}
}

func TestFigure9Partition(t *testing.T) {
	lt := tree.NewLabelTable()
	g := figure9Tree(lt)
	b := lcrs.Build(g)
	p := Compute(b, 3)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Gamma != 3 {
		t.Fatalf("gamma = %d", p.Gamma)
	}
	// Expected cuts (paper's trace): s1 = {l4,l5,l6}, s2 = {l8,l9,l10,l11},
	// root component = {l1,l2,l3,l7}.
	wantComp := map[string]int32{
		"l4": 0, "l5": 0, "l6": 0,
		"l8": 1, "l9": 1, "l10": 1, "l11": 1,
		"l1": 2, "l2": 2, "l3": 2, "l7": 2,
	}
	for name, want := range wantComp {
		if got := p.Comp[nodeByLabel(g, name)]; got != want {
			t.Errorf("comp(%s) = %d, want %d", name, got, want)
		}
	}
	if p.Sizes[0] != 3 || p.Sizes[1] != 4 || p.Sizes[2] != 4 {
		t.Errorf("sizes = %v", p.Sizes)
	}
	if p.Roots[0] != nodeByLabel(g, "l4") || p.Roots[1] != nodeByLabel(g, "l8") {
		t.Errorf("cut roots = %v", p.Roots)
	}
}

// bruteforcePartitionable enumerates all (δ−1)-subsets of edges and reports
// whether some subset yields δ components all of size ≥ γ. Exponential; keep
// trees small.
func bruteforcePartitionable(b *lcrs.Bin, delta, gamma int) bool {
	var nonRoot []int32
	for id := range b.Tree.Nodes {
		if int32(id) != b.Tree.Root() {
			nonRoot = append(nonRoot, int32(id))
		}
	}
	cut := make(map[int32]bool)
	var rec func(start, left int) bool
	rec = func(start, left int) bool {
		if left == 0 {
			return allComponentsAtLeast(b, cut, gamma)
		}
		for i := start; i <= len(nonRoot)-left; i++ {
			cut[nonRoot[i]] = true
			if rec(i+1, left-1) {
				cut[nonRoot[i]] = false
				return true
			}
			cut[nonRoot[i]] = false
		}
		return false
	}
	return rec(0, delta-1)
}

func allComponentsAtLeast(b *lcrs.Bin, cut map[int32]bool, gamma int) bool {
	// residual[v] = nodes below v within v's component.
	residual := make([]int32, b.Size())
	ok := true
	for _, v := range b.Order {
		r := int32(1)
		if l := b.Left(v); l != lcrs.None && !cut[l] {
			r += residual[l]
		}
		if rr := b.Right(v); rr != lcrs.None && !cut[rr] {
			r += residual[rr]
		}
		residual[v] = r
		if cut[v] || v == b.Tree.Root() {
			if int(r) < gamma {
				ok = false
			}
		}
	}
	return ok
}

// TestPartitionableMatchesBruteForce: the greedy linear-time test (Algorithm
// 2) decides exactly the same instances as exhaustive search.
func TestPartitionableMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	lt := tree.NewLabelTable()
	st := &partitionState{}
	for i := 0; i < 300; i++ {
		g := randomSizedTree(rng, 1+rng.Intn(12), lt)
		b := lcrs.Build(g)
		n := b.Size()
		for delta := 1; delta <= n && delta <= 4; delta++ {
			for gamma := 1; gamma <= n; gamma++ {
				got := partitionable(b, delta, gamma, st, nil)
				want := gamma*delta <= n && bruteforcePartitionable(b, delta, gamma)
				if got != want {
					t.Fatalf("partitionable(δ=%d, γ=%d) = %v, brute force %v\n%s",
						delta, gamma, got, want, tree.FormatBracket(g))
				}
			}
		}
	}
}

// TestMaxMinSizeMaximality: MaxMinSize returns a feasible γ whose successor
// is infeasible (Lemma 4 monotonicity makes this the maximum).
func TestMaxMinSizeMaximality(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	lt := tree.NewLabelTable()
	st := &partitionState{}
	for i := 0; i < 300; i++ {
		g := randomSizedTree(rng, 1+rng.Intn(60), lt)
		b := lcrs.Build(g)
		n := b.Size()
		for delta := 1; delta <= n && delta <= 9; delta += 2 {
			gamma := MaxMinSize(b, delta)
			if gamma < 1 {
				t.Fatalf("MaxMinSize = %d", gamma)
			}
			if !partitionable(b, delta, gamma, st, nil) {
				t.Fatalf("MaxMinSize γ=%d infeasible (δ=%d, n=%d)", gamma, delta, n)
			}
			if partitionable(b, delta, gamma+1, st, nil) {
				t.Fatalf("MaxMinSize γ=%d not maximal (δ=%d, n=%d)", gamma, delta, n)
			}
		}
	}
}

// TestComputeInvariants: the realised partition has δ connected components,
// every component at least γ nodes, component roots in postorder, and the
// recorded component sizes correct.
func TestComputeInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	lt := tree.NewLabelTable()
	for i := 0; i < 300; i++ {
		g := randomSizedTree(rng, 1+rng.Intn(80), lt)
		b := lcrs.Build(g)
		n := b.Size()
		for delta := 1; delta <= n && delta <= 9; delta += 2 {
			p := Compute(b, delta)
			if err := p.Validate(); err != nil {
				t.Fatalf("δ=%d: %v\n%s", delta, err, tree.FormatBracket(g))
			}
			if p.MinSize() < p.Gamma {
				t.Fatalf("component smaller than γ: min=%d γ=%d", p.MinSize(), p.Gamma)
			}
			var total int32
			for _, s := range p.Sizes {
				total += s
			}
			if int(total) != n {
				t.Fatalf("component sizes sum to %d, want %d", total, n)
			}
		}
	}
}

// ComputeRandom realises a δ-partitioning (δ ≤ the tree's size) from δ−1
// distinct random edges: the partitioning of §4.3's ablation, which the paper
// reports the balanced scheme beats by 50–300% (BenchmarkAblationPartitioning).
// Lemma 2 holds for any δ-partitioning, so an index over random partitions
// answers exactly; only its candidates differ.
func ComputeRandom(b *lcrs.Bin, delta int, rng *rand.Rand) *Partition {
	// Each non-root node identifies the edge to its binary parent. Choose
	// delta−1 of the n−1 edges without replacement.
	nonRoot := make([]int32, 0, b.Size()-1)
	for id := range b.Tree.Nodes {
		if int32(id) != b.Tree.Root() {
			nonRoot = append(nonRoot, int32(id))
		}
	}
	rng.Shuffle(len(nonRoot), func(i, j int) { nonRoot[i], nonRoot[j] = nonRoot[j], nonRoot[i] })
	// assemble numbers components by their roots' binary postorder rank.
	cuts := nonRoot[:delta-1]
	slices.SortFunc(cuts, func(u, v int32) int { return cmp.Compare(b.Rank[u], b.Rank[v]) })
	return assemble(b, delta, cuts)
}

func TestComputeRandomInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	lt := tree.NewLabelTable()
	for i := 0; i < 200; i++ {
		g := randomSizedTree(rng, 1+rng.Intn(60), lt)
		b := lcrs.Build(g)
		n := b.Size()
		for delta := 1; delta <= n && delta <= 7; delta += 2 {
			p := ComputeRandom(b, delta, rng)
			if err := p.Validate(); err != nil {
				t.Fatalf("δ=%d: %v\n%s", delta, err, tree.FormatBracket(g))
			}
		}
	}
}

func TestPartitionEdgeShapes(t *testing.T) {
	lt := tree.NewLabelTable()
	shapes := []string{
		"{a}",
		"{a{b}}",
		"{a{b{c{d{e{f{g}}}}}}}",       // deep chain
		"{a{b}{c}{d}{e}{f}{g}}",       // star
		"{a{b{c}{d}}{e{f}{g}}}",       // balanced
		"{a{b{c{d}}{e}}{f}{g{h{i}}}}", // mixed
	}
	for _, s := range shapes {
		g := tree.MustParseBracket(s, lt)
		b := lcrs.Build(g)
		for delta := 1; delta <= b.Size(); delta++ {
			p := Compute(b, delta)
			if err := p.Validate(); err != nil {
				t.Fatalf("%s δ=%d: %v", s, delta, err)
			}
			if delta == b.Size() && p.MinSize() != 1 {
				t.Fatalf("δ=n should give singletons")
			}
		}
	}
}

// TestPaperLowerBoundFormula: the closed-form γ of Algorithm 3 line 3 is
// always feasible (the property the binary search's initial invariant needs).
func TestPaperLowerBoundFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	lt := tree.NewLabelTable()
	st := &partitionState{}
	for i := 0; i < 200; i++ {
		g := randomSizedTree(rng, 1+rng.Intn(50), lt)
		b := lcrs.Build(g)
		n := b.Size()
		for delta := 1; delta <= n && delta <= 7; delta++ {
			gmin := maxMinSizeLowerBound(n, delta)
			if gmin < 1 {
				t.Fatalf("lower bound %d < 1", gmin)
			}
			if !partitionable(b, delta, gmin, st, nil) {
				t.Fatalf("closed-form bound infeasible: n=%d δ=%d γ=%d", n, delta, gmin)
			}
		}
	}
}

// TestQuickBinaryPostorderPermutation: lcrs.Build's orders are inverse
// permutations with children before parents, for arbitrary trees.
func TestQuickBinaryPostorderPermutation(t *testing.T) {
	lt := tree.NewLabelTable()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomSizedTree(rng, 1+rng.Intn(60), lt)
		b := lcrs.Build(g)
		for r, n := range b.Order {
			if b.Rank[n] != int32(r) {
				return false
			}
		}
		for id := range g.Nodes {
			n := int32(id)
			if l := b.Left(n); l != lcrs.None && b.Rank[l] >= b.Rank[n] {
				return false
			}
			if r := b.Right(n); r != lcrs.None && b.Rank[r] >= b.Rank[n] {
				return false
			}
			// General postorder: parent after every child.
			for c := g.Nodes[n].FirstChild; c != tree.None; c = g.Nodes[c].NextSibling {
				if b.GenRank[c] >= b.GenRank[n] {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 250, Rand: rand.New(rand.NewSource(419))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// MaxMinSize is Algorithm 3 on fresh scratch.
func MaxMinSize(b *lcrs.Bin, delta int) int { return maxMinSize(b, delta, &partitionState{}) }

// Compute is the paper's partitioning scheme on fresh scratch.
func Compute(b *lcrs.Bin, delta int) *Partition { return compute(b, delta, &partitionState{}) }

// Validate checks the structural invariants of a partition: components are
// non-empty, connected through binary edges, rooted at Roots, numbered by
// ascending root postorder rank, and component Delta−1 holds the tree root.
// Safe to call on any partition.
func (p *Partition) Validate() error {
	b := p.Bin
	if len(p.Roots) != p.Delta {
		return fmt.Errorf("core: partition has %d roots, want %d", len(p.Roots), p.Delta)
	}
	for c := 0; c < p.Delta; c++ {
		if p.Sizes[c] <= 0 {
			return fmt.Errorf("core: component %d is empty", c)
		}
		if p.Comp[p.Roots[c]] != int32(c) {
			return fmt.Errorf("core: root of component %d labeled %d", c, p.Comp[p.Roots[c]])
		}
		if c > 0 && b.Rank[p.Roots[c-1]] >= b.Rank[p.Roots[c]] {
			return fmt.Errorf("core: component roots out of postorder: %d then %d", c-1, c)
		}
	}
	if p.Roots[p.Delta-1] != b.Tree.Root() {
		return fmt.Errorf("core: last component root %d is not the tree root", p.Roots[p.Delta-1])
	}
	// Every non-component-root node must connect to its binary parent within
	// the same component; this implies connectivity.
	rootSet := make(map[int32]bool, p.Delta)
	for _, r := range p.Roots {
		rootSet[r] = true
	}
	var total int32
	for id := range p.Comp {
		n := int32(id)
		total++
		if rootSet[n] {
			continue
		}
		par := b.Parent(n)
		if par == lcrs.None {
			return fmt.Errorf("core: node %d has no binary parent but is not a component root", n)
		}
		if p.Comp[par] != p.Comp[n] {
			return fmt.Errorf("core: node %d (comp %d) detached from parent %d (comp %d)", n, p.Comp[n], par, p.Comp[par])
		}
	}
	if int(total) != b.Size() {
		return fmt.Errorf("core: labeled %d of %d nodes", total, b.Size())
	}
	return nil
}

// MinSize returns the size of the smallest component.
func (p *Partition) MinSize() int {
	m := p.Sizes[0]
	for _, s := range p.Sizes[1:] {
		if s < m {
			m = s
		}
	}
	return int(m)
}

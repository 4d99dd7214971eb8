package core

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"treejoin/internal/lcrs"
	"treejoin/internal/tree"
)

func TestSubgraphTwig(t *testing.T) {
	lt := tree.NewLabelTable()
	g := figure9Tree(lt) // 11 nodes; Compute(δ=3) cuts at l4 and l8
	b := lcrs.Build(g)
	p := Compute(b, 3)

	// Component 0 root is l4: binary left = l5 (in component), right = l6
	// (in component); neither has a child or a sibling.
	tw := indexKey(p, 0)
	l4, l5, l6 := lt.Intern("l4"), lt.Intern("l5"), lt.Intern("l6")
	if tw != (twig{root: l4, left: l5, right: l6, occ: 0b0000}) {
		t.Errorf("twig(comp0) = %+v", tw)
	}
	// Component 2 (root component) root is l1: left = l2 (in component, with
	// a child l3 and a sibling l7), right = empty (the root has no sibling).
	tw = indexKey(p, 2)
	l1, l2 := lt.Intern("l1"), lt.Intern("l2")
	if tw != (twig{root: l1, left: l2, right: slotEmpty, occ: 0b1100}) {
		t.Errorf("twig(comp2) = %+v", tw)
	}
	// Component 1 root is l8: left = l9 (in component, with a child l10 and
	// no sibling), right = l11 (also in component 1, a leaf with no sibling).
	tw = indexKey(p, 1)
	l8, l9, l11 := lt.Intern("l8"), lt.Intern("l9"), lt.Intern("l11")
	if tw != (twig{root: l8, left: l9, right: l11, occ: 0b1000}) {
		t.Errorf("twig(comp1) = %+v", tw)
	}
}

func TestSubgraphTwigBridge(t *testing.T) {
	lt := tree.NewLabelTable()
	// A chain partitioned into singletons: every slot pointing at a child is
	// a bridging edge.
	g := tree.MustParseBracket("{a{b{c}}}", lt)
	b := lcrs.Build(g)
	p := Compute(b, 3) // γ = 1, three singleton components
	if p.MinSize() != 1 {
		t.Fatalf("expected singleton components, sizes %v", p.Sizes)
	}
	// The root component {a} has a bridging left slot (to b) and empty right:
	// no slot descends, so no occupancy bits, though b has a child.
	rootComp := int32(p.Delta - 1)
	tw := indexKey(p, rootComp)
	if tw != (twig{root: lt.Intern("a"), left: slotBridge, right: slotEmpty, occ: 0}) {
		t.Errorf("twig(root comp) = %+v", tw)
	}
}

func TestProbeKeysEnumeration(t *testing.T) {
	lt := tree.NewLabelTable()
	g := tree.MustParseBracket("{a{b{d}}{c}}", lt)
	b := lcrs.Build(g)
	var keys [4]twig
	la, lb, lc, ld := lt.Intern("a"), lt.Intern("b"), lt.Intern("c"), lt.Intern("d")

	// Root a: left child b (which has a child d and a sibling c), right none
	// → 2 keys; only the descend option carries b's occupancy.
	n := probeKeys(b, g.Root(), &keys)
	if n != 2 {
		t.Fatalf("root keys = %d", n)
	}
	wantRoot := map[twig]bool{
		{root: la, left: lb, right: slotEmpty, occ: 0b1100}:    true,
		{root: la, left: slotBridge, right: slotEmpty, occ: 0}: true,
	}
	for i := 0; i < n; i++ {
		if !wantRoot[keys[i]] {
			t.Errorf("unexpected root key %+v", keys[i])
		}
	}

	// Node b: left child d, right sibling c, both leaves without a sibling
	// → 4 keys, every occupancy empty.
	nb := nodeByLabel(g, "b")
	n = probeKeys(b, nb, &keys)
	if n != 4 {
		t.Fatalf("b keys = %d", n)
	}
	want := map[twig]bool{
		{root: lb, left: ld, right: lc, occ: 0}:                 true,
		{root: lb, left: ld, right: slotBridge, occ: 0}:         true,
		{root: lb, left: slotBridge, right: lc, occ: 0}:         true,
		{root: lb, left: slotBridge, right: slotBridge, occ: 0}: true,
	}
	for i := 0; i < n; i++ {
		if !want[keys[i]] {
			t.Errorf("unexpected b key %+v", keys[i])
		}
	}

	// Leaf d with no sibling → 1 key.
	nd := nodeByLabel(g, "d")
	if n = probeKeys(b, nd, &keys); n != 1 {
		t.Fatalf("d keys = %d", n)
	}
	if keys[0] != (twig{root: ld, left: slotEmpty, right: slotEmpty, occ: 0}) {
		t.Errorf("d key = %+v", keys[0])
	}

	// A leaf whose right sibling has a child and a sibling of its own: the
	// right descend option carries the low two bits.
	g2 := tree.MustParseBracket("{a{x}{c{e}}{f}}", lt)
	b2 := lcrs.Build(g2)
	if n = probeKeys(b2, nodeByLabel(g2, "x"), &keys); n != 2 {
		t.Fatalf("x keys = %d", n)
	}
	lx := lt.Intern("x")
	wantX := map[twig]bool{
		{root: lx, left: slotEmpty, right: lc, occ: 0b0011}:    true,
		{root: lx, left: slotEmpty, right: slotBridge, occ: 0}: true,
	}
	for i := 0; i < n; i++ {
		if !wantX[keys[i]] {
			t.Errorf("unexpected x key %+v", keys[i])
		}
	}
}

// TestProbeWindowMath verifies the size-difference-aware window directly:
// with τ=2 the window for equal sizes is r±1, for the maximal size gap it is
// one-sided.
func TestProbeWindowMath(t *testing.T) {
	lt := tree.NewLabelTable()
	// Index a 7-node tree's partition.
	pat := tree.MustParseBracket("{a{b{c}{d}}{e{f}{g}}}", lt)
	bp := lcrs.Build(pat)
	tau := 2
	p := Compute(bp, 2*tau+1)
	ix := newInvIndex(tau)
	ix.insert(0, p)

	// Probing with the identical tree must visit every component once per
	// matching (node, window) position; in particular each component's root
	// node probe must see its own entry.
	var sc matchScratch
	hits := make(map[int32]bool)
	for _, n := range bp.Order {
		ix.probe(bp, n, pat.Size(), pat.Size(), noTieLimit, func(e posting) {
			if ix.matches(e, bp, n, &sc) {
				hits[e.comp] = true
			}
		})
	}
	for c := 0; c < p.Delta; c++ {
		if !hits[int32(c)] {
			t.Fatalf("component %d not reachable via probe on identical tree", c)
		}
	}
}

// bruteProbe is the documented contract of probe, applied to every posting
// ever inserted: same twig as one of the node's keys, size within
// [minSize, maxSize], at maxSize a tree number below tieBelow, and position
// inside the window.
func bruteProbe(all []posting, twigs map[int32]twig, tau int, b *lcrs.Bin, n int32, minSize, maxSize int, tieBelow int32) map[posting]int {
	var keys [4]twig
	nk := probeKeys(b, n, &keys)
	r := int32(b.Size()) - 1 - b.GenRank[n]
	want := make(map[posting]int)
	for _, e := range all {
		if int(e.size) < minSize || int(e.size) > maxSize || int(e.size) == maxSize && e.tree >= tieBelow ||
			!slices.Contains(keys[:nk], twigs[e.prog]) {
			continue
		}
		d := b.Size() - int(e.size)
		if e.pos >= r-int32((tau+d)/2) && e.pos <= r+int32((tau-d)/2) {
			want[e]++
		}
	}
	return want
}

// TestProbeVisitsExactlyTheWindow: for random trees and every way of building
// the index (ascending-size inserts, shuffled inserts,
// bulk build on one goroutine and on several), the multiset of postings probe
// visits at a node equals a brute-force scan of everything inserted against
// the size and position windows and the tie limit — and the lists stay
// sorted, which is what probe's binary search assumes.
func TestProbeVisitsExactlyTheWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(307))
	lt := tree.NewLabelTable()
	for iter := 0; iter < 60; iter++ {
		tau := 1 + rng.Intn(3)
		delta := 2*tau + 1
		parts := make([]*Partition, 12+rng.Intn(12))
		for i := range parts {
			if rng.Intn(6) == 0 {
				continue // a tree too small to index, or removed
			}
			parts[i] = Compute(lcrs.Build(randomSizedTree(rng, delta+rng.Intn(12), lt)), delta)
		}
		ascending := make([]int, 0, len(parts))
		for i, p := range parts {
			if p != nil {
				ascending = append(ascending, i)
			}
		}
		shuffled := slices.Clone(ascending)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		sort.SliceStable(ascending, func(i, j int) bool { return parts[ascending[i]].Bin.Size() < parts[ascending[j]].Bin.Size() })

		built := map[string]*invIndex{"sorted": newInvIndex(tau), "shuffled": newInvIndex(tau), "bulk": bulkIndex(tau, parts, 1), "bulk3": bulkIndex(tau, parts, 3)}
		for _, ti := range ascending {
			built["sorted"].insert(ti, parts[ti])
		}
		for _, ti := range shuffled {
			built["shuffled"].insert(ti, parts[ti])
		}
		probes := []*lcrs.Bin{parts[ascending[0]].Bin, lcrs.Build(randomSizedTree(rng, delta+rng.Intn(12), lt))}
		for name, ix := range built {
			var all []posting
			twigs := make(map[int32]twig)
			for _, slot := range ix.lists.slots {
				if slot.list == 0 {
					continue
				}
				tw, ps := slot.key, ix.posts[slot.list-1]
				if ix.lists.get(tw) != slot.list-1 {
					t.Fatalf("%s: table does not find %+v where it holds it", name, tw)
				}
				if !slices.IsSortedFunc(ps, comparePostings) {
					t.Fatalf("%s: list of %+v is not sorted by (size, pos)", name, tw)
				}
				for _, e := range ps {
					twigs[e.prog] = tw
				}
				all = append(all, ps...)
			}
			if int64(len(all)) != ix.n || len(all) != delta*len(ascending) {
				t.Fatalf("%s: %d postings held, counter says %d, %d subgraphs inserted", name, len(all), ix.n, delta*len(ascending))
			}
			for _, b := range probes {
				minSize, maxSize := b.Size()-rng.Intn(tau+1), b.Size()+rng.Intn(tau+1)
				tieBelow := int32(noTieLimit)
				if rng.Intn(2) == 0 {
					tieBelow = int32(rng.Intn(len(parts) + 1))
				}
				for _, n := range b.Order {
					got := make(map[posting]int)
					visited := ix.probe(b, n, minSize, maxSize, tieBelow, func(e posting) { got[e]++ })
					want := bruteProbe(all, twigs, tau, b, n, minSize, maxSize, tieBelow)
					if !maps.Equal(got, want) {
						t.Fatalf("%s τ=%d node %d sizes [%d,%d] ties below %d: probe visited %v, brute force admits %v", name, tau, n, minSize, maxSize, tieBelow, got, want)
					}
					made := 0
					for _, c := range got {
						made += c
					}
					if int64(made) != visited {
						t.Fatalf("%s: probe reported %d visits, made %d", name, visited, made)
					}
				}
			}
		}
	}
}

// bulkIndex is buildInvIndex over partitions computed beforehand.
func bulkIndex(tau int, parts []*Partition, workers int) *invIndex {
	return buildInvIndex(tau, len(parts), workers, func(i int, _ *partitionState) *Partition { return parts[i] })
}

// TestComposeEqualsBuild: over random collections cut into 1–5 parts of random
// membership, at τ ∈ {0, 1, 2, 4}, Compose holds the index NewIndexCached
// builds over the whole collection — list for list, posting for posting,
// program for program, smalls equal — and one part is returned as is. The
// first collection is four copies of one tree in alternating parts, so a
// cross-part (size, pos) tie decides every list's order.
func TestComposeEqualsBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(2015))
	lt := tree.NewLabelTable()
	twin := randomSizedTree(rng, 12, lt)
	for trial := 0; trial < 12; trial++ {
		tau, nparts := []int{0, 1, 2, 4}[trial%4], 1+rng.Intn(5)
		ts := clusteredTrees(rng, 1+rng.Intn(60), lt)
		if trial == 0 {
			tau, nparts, ts = 2, 2, []*tree.Tree{twin, twin.Clone(), twin.Clone(), twin.Clone()}
		}
		opts := Options{Tau: tau, Workers: 1 + rng.Intn(3)}
		at, subs := make([][]int32, nparts), make([][]*tree.Tree, nparts)
		for i := range ts {
			k := rng.Intn(nparts)
			if trial == 0 {
				k = i % 2
			}
			at[k], subs[k] = append(at[k], int32(i)), append(subs[k], ts[i])
		}
		x := Compose(ts, at, func(k int) *Index { return NewIndexCached(subs[k], opts, nil) })
		want := NewIndexCached(ts, opts, nil)
		if nparts == 1 && Compose(ts, at, func(int) *Index { return want }) != want ||
			!slices.Equal(x.ts, ts) || !slices.Equal(x.smalls, want.smalls) || x.ix.lists.n != want.ix.lists.n {
			t.Fatalf("τ=%d, %d parts: smalls %v, want %v; %d lists, want %d (or one part was copied)", tau, nparts, x.smalls, want.smalls, x.ix.lists.n, want.ix.lists.n)
		}
		for _, s := range want.ix.lists.slots {
			if got, exp := dumpList(x.ix, s.key), dumpList(want.ix, s.key); s.list != 0 && got != exp {
				t.Fatalf("τ=%d, %d parts: list %+v is\n%swant\n%s", tau, nparts, s.key, got, exp)
			}
		}
	}
}

// dumpList renders ix's list of key a posting a line, each with its match
// program's words in place of their offset: a node's word settles one pending
// node and opens one per descending slot.
func dumpList(ix *invIndex, key twig) string {
	var b strings.Builder
	for _, e := range ix.posts[max(ix.lists.get(key), 0)] {
		pc := e.prog
		for pending := 1; pending > 0; pc++ {
			w := ix.progs[pc]
			pending += int(w>>4&1+w>>2&1) - 1 // kindDescend is 2
			pc += int32(w & 1)
		}
		fmt.Fprintln(&b, e.size, e.pos, e.tree, e.comp, ix.progs[e.prog:pc])
	}
	return b.String()
}

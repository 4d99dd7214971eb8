package core

import (
	"math/rand"
	"testing"

	"treejoin/internal/lcrs"
	"treejoin/internal/tree"
)

// The pointer walk over (partition, view, tree) that the index's match
// programs replaced, kept as their oracle: it applies the slot rules of
// match.go directly to the partitioned tree.

// Matches reports whether component comp of partition p occurs at node
// probeNode of probe.
func Matches(p *Partition, comp int32, probe *lcrs.Bin, probeNode int32) bool {
	type frame struct{ pat, prb int32 }
	pat := p.Bin
	stack := []frame{{p.Roots[comp], probeNode}}
	// slotOK applies the slot rules for one (pattern child, probe child) pair
	// and schedules the recursive comparison for in-component children.
	slotOK := func(pc, qc int32) bool {
		switch {
		case pc == lcrs.None: // empty slot: probe must be empty too
			return qc == lcrs.None
		case p.Comp[pc] != comp: // bridging edge: probe must have some child
			return qc != lcrs.None
		default: // in-component child: recurse
			if qc == lcrs.None {
				return false
			}
			stack = append(stack, frame{pc, qc})
			return true
		}
	}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if pat.Label(f.pat) != probe.Label(f.prb) ||
			!slotOK(pat.Left(f.pat), probe.Left(f.prb)) ||
			!slotOK(pat.Right(f.pat), probe.Right(f.prb)) {
			return false
		}
	}
	return true
}

// MatchesAnywhere reports whether component comp of p occurs at any node of
// probe: the containment test of Lemma 2 in its brute-force form, which the
// index exists to avoid running for every (subgraph, node) pair.
func MatchesAnywhere(p *Partition, comp int32, probe *lcrs.Bin) bool {
	for n := range probe.Tree.Nodes {
		if Matches(p, comp, probe, int32(n)) {
			return true
		}
	}
	return false
}

// TestMatchProgramsAgreeWithPointerWalk: over random partitions (balanced and
// random cuts) and probes a few edits away, running a component's match
// program at a node gives the pointer walk's answer — at every node, so
// MatchesAnywhere agrees too — and the program is exactly the component's
// nodes.
func TestMatchProgramsAgreeWithPointerWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	lt := tree.NewLabelTable()
	iters := 400
	if testing.Short() {
		iters = 100
	}
	hits := 0
	for i := 0; i < iters; i++ {
		tau := 1 + rng.Intn(4)
		delta := 2*tau + 1
		t1 := randomSizedTree(rng, delta+rng.Intn(50), lt)
		b1 := lcrs.Build(t1)
		p := Compute(b1, delta)
		if rng.Intn(2) == 0 {
			p = ComputeRandom(b1, delta, rng)
		}
		t2 := t1
		for e := rng.Intn(tau + 2); e > 0; e-- {
			t2 = randomEditOp(rng, t2, lt)
		}
		// One run in four uses labels past the 27 bits a program word holds,
		// which take a second word each.
		words := 1
		if i%4 == 3 {
			words = 2
			t1, t2 = t1.Clone(), t2.Clone()
			for _, tr := range []*tree.Tree{t1, t2} {
				for n := range tr.Nodes {
					tr.Nodes[n].Label += wideLabel
				}
			}
			b1 = lcrs.Build(t1)
			p = Compute(b1, delta)
		}
		b2 := lcrs.Build(t2)

		ix := newInvIndex(tau)
		ix.insert(0, p)
		progNodes := 0
		seen := make(map[int32]bool)
		var sc matchScratch
		for _, ps := range ix.posts {
			for _, e := range ps {
				if !seen[e.comp] {
					seen[e.comp] = true
					progNodes += int(p.Sizes[e.comp])
				}
				anywhere := false
				for n := range b2.Tree.Nodes {
					got := ix.matches(e, b2, int32(n), &sc)
					if want := Matches(p, e.comp, b2, int32(n)); got != want {
						t.Fatalf("run %d, component %d at node %d: program says %v, pointer walk %v", i, e.comp, n, got, want)
					}
					anywhere = anywhere || got
				}
				if anywhere != MatchesAnywhere(p, e.comp, b2) {
					t.Fatalf("component %d: MatchesAnywhere disagrees with the program", e.comp)
				}
				if anywhere {
					hits++
				}
			}
		}
		if len(seen) != delta || progNodes != b1.Size() || len(ix.progs) != words*b1.Size() {
			t.Fatalf("programs cover %d components, %d nodes, arena %d; want %d, %d, %d",
				len(seen), progNodes, len(ix.progs), delta, b1.Size(), words*b1.Size())
		}
	}
	if hits == 0 {
		t.Fatal("no component ever matched: the test exercised only rejections")
	}
}

package core

import (
	"fmt"
	"slices"
	"testing"

	"treejoin/internal/lcrs"
	"treejoin/internal/synth"
	"treejoin/internal/tree"
)

// TestIndexKeyIsNecessary: the index key is a necessary condition of a match.
// Over trees of several generator profiles (near-duplicate clusters, so that
// components match outside their own tree too) and δ ∈ {1, 3, 5, 7, 9}, every
// component of every pattern tree is run at every node of every probe tree of
// its profile, the pattern itself included. Wherever its match program
// accepts, the pointer walk accepts too and the key the component is filed
// under is one of the node's probe keys — so the probe's lookups never skip a
// posting that could match. Matches behind a key with occupancy bits set must
// occur, or the test would not exercise the refinement.
func TestIndexKeyIsNecessary(t *testing.T) {
	profiles := map[string][]*tree.Tree{
		"swissprot": synth.Swissprot(12, 3),
		"treebank":  synth.Treebank(12, 5),
		"sentiment": synth.Sentiment(12, 7),
		"synthetic": synth.Synthetic(12, 9),
	}
	var sc matchScratch
	for name, ts := range profiles {
		bins := make([]*lcrs.Bin, len(ts))
		for i, tr := range ts {
			bins[i] = lcrs.Build(tr)
		}
		hits, occHits := 0, 0
		for _, delta := range []int{1, 3, 5, 7, 9} {
			for pi, bp := range bins {
				if bp.Size() < delta {
					continue
				}
				p := Compute(bp, delta)
				ix := newInvIndex(delta / 2)
				ix.insert(pi, p)
				for _, slot := range ix.lists.slots {
					if slot.list == 0 {
						continue
					}
					for _, e := range ix.posts[slot.list-1] {
						if key := indexKey(p, e.comp); slot.key != key {
							t.Fatalf("%s δ=%d tree %d component %d filed under %+v, its key is %+v", name, delta, pi, e.comp, slot.key, key)
						}
						for qi, bq := range bins {
							for n := range bq.Tree.Nodes {
								got := ix.matches(e, bq, int32(n), &sc)
								if want := Matches(p, e.comp, bq, int32(n)); got != want {
									t.Fatalf("%s δ=%d tree %d component %d at tree %d node %d: program says %v, pointer walk %v", name, delta, pi, e.comp, qi, n, got, want)
								}
								if !got {
									continue
								}
								var keys [4]twig
								nk := probeKeys(bq, int32(n), &keys)
								if !slices.Contains(keys[:nk], slot.key) {
									t.Fatalf("%s δ=%d tree %d component %d matches at tree %d node %d, but its key %+v is not among the probe keys %v", name, delta, pi, e.comp, qi, n, slot.key, fmt.Sprint(keys[:nk]))
								}
								hits++
								if slot.key.occ != 0 {
									occHits++
								}
							}
						}
					}
				}
			}
		}
		if occHits == 0 {
			t.Fatalf("%s: none of %d matches is behind occupancy bits", name, hits)
		}
		t.Logf("%s: %d matches, %d behind occupancy bits", name, hits, occHits)
	}
}

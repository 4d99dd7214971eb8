package baseline

import (
	"sort"

	"treejoin/internal/tree"
)

// The HIST baseline follows Kailing et al. [16]: prune tree pairs using
// cheap lower bounds of the TED derived from simple per-tree statistics —
// node counts, leaf counts, tree height, and histograms of node labels and
// node degrees. The constants below are proved against this module's edit
// model (§2 of the paper); each proof enumerates the worst case of a single
// node edit operation, so d(hist) ≤ c·TED follows by induction over an
// optimal edit sequence.
//
//   - Size: an insert/delete changes |T| by exactly 1, a rename by 0, so
//     |‖T1‖−‖T2‖| ≤ TED.
//   - Leaves: a delete removes at most one leaf and creates at most one (the
//     parent of a deleted only-child leaf), an insert symmetrically, so the
//     leaf count changes by at most 1 per operation.
//   - Height: an insert pushes the subtrees below the new node down one
//     level; a delete lifts them one level; so the height changes by at most
//     1 per operation.
//   - Label histogram: a rename moves one unit of mass between two bins (L1
//     change 2), insert/delete add/remove one unit (L1 change 1), so
//     L1(labels) ≤ 2·TED.
//   - Degree histogram: deleting a node v with k children moves the parent's
//     count from bin m to bin m+k−1 (L1 change ≤ 2) and removes v's count
//     from bin k (L1 change 1); insert is symmetric; rename changes nothing;
//     so L1(degrees) ≤ 3·TED.
//
// Kailing et al. additionally propose a leaf-distance histogram with a
// specialised (shift-aware) histogram metric; a plain L1 on depth or height
// histograms is *not* within a constant factor of TED (one deletion can move
// every ancestor's height), so that filter is deliberately not reproduced
// here. The five bounds above are exactly the "distance to leaves, degrees,
// and labels" statistics the survey [18] attributes to [16], and the oracle
// property tests in extra_test.go confirm the combination never prunes a
// true result.

// histEntry is one bin of a sparse histogram: a key (label id or degree) and
// its count.
type histEntry struct {
	key   int32
	count int32
}

// HistProfile carries the per-tree statistics the HIST filter compares.
// Profiles are immutable after NewHistProfile and safe to share.
type HistProfile struct {
	size   int
	leaves int
	height int
	labels []histEntry // sorted by key
	degs   []histEntry // sorted by key
}

// NewHistProfile extracts the statistics of t in O(|t|) time.
func NewHistProfile(t *tree.Tree) *HistProfile {
	p := &HistProfile{size: t.Size()}
	labels := make(map[int32]int32)
	degs := make(map[int32]int32)
	depths := tree.Depths(t)
	for id := range t.Nodes {
		n := int32(id)
		labels[t.Nodes[n].Label]++
		if d := int(depths[n]); d > p.height {
			p.height = d
		}
		var fan int32
		for c := t.Nodes[n].FirstChild; c != tree.None; c = t.Nodes[c].NextSibling {
			fan++
		}
		degs[fan]++
		if fan == 0 {
			p.leaves++
		}
	}
	p.labels = sortedHist(labels)
	p.degs = sortedHist(degs)
	return p
}

func sortedHist(m map[int32]int32) []histEntry {
	out := make([]histEntry, 0, len(m))
	for k, c := range m {
		out = append(out, histEntry{key: k, count: c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// l1 returns the L1 distance between two sparse sorted histograms.
func l1(a, b []histEntry) int {
	var d int
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].key == b[j].key:
			d += abs(int(a[i].count) - int(b[j].count))
			i++
			j++
		case a[i].key < b[j].key:
			d += int(a[i].count)
			i++
		default:
			d += int(b[j].count)
			j++
		}
	}
	for ; i < len(a); i++ {
		d += int(a[i].count)
	}
	for ; j < len(b); j++ {
		d += int(b[j].count)
	}
	return d
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// HistLowerBound returns the largest of the five statistic-based TED lower
// bounds for the two profiled trees.
func HistLowerBound(p1, p2 *HistProfile) int {
	lb := abs(p1.size - p2.size)
	if d := abs(p1.leaves - p2.leaves); d > lb {
		lb = d
	}
	if d := abs(p1.height - p2.height); d > lb {
		lb = d
	}
	if d := (l1(p1.labels, p2.labels) + 1) / 2; d > lb {
		lb = d
	}
	if d := (l1(p1.degs, p2.degs) + 2) / 3; d > lb {
		lb = d
	}
	return lb
}

package ted

import "treejoin/internal/tree"

// Constrained tree edit distance (Zhang, Pattern Recognition 28(3), 1995) —
// the "alignment-like" restriction of TED the paper's related work refers to
// with [15, 24]: edit mappings must map disjoint subtrees to disjoint
// subtrees (equivalently, the mapping preserves least common ancestors).
// Under this restriction the distance is computable in O(|T1|·|T2|) time
// instead of cubic, at the price of sometimes overestimating the
// unconstrained TED. It is still a metric, and CTED(T1,T2) ≥ TED(T1,T2)
// always, so it is useful both as a fast conservative distance in its own
// right and as a cheap upper bound: a pair with CTED ≤ τ is certainly a join
// result.
//
// The recurrences, with D for subtree pairs, F for child-forest pairs, and
// A(i,j) the edit distance over the two child sequences where matching
// children r, s costs D(r, s):
//
//	D(i, j) = min( insTree(j) + min_s [D(i, s) − insTree(s)],
//	               delTree(i) + min_r [D(r, j) − delTree(r)],
//	               F(i, j) + rename(i, j) )
//	F(i, j) = min( insForest(j) + min_s [F(i, s) − insForest(s)],
//	               delForest(i) + min_r [F(r, j) − delForest(r)],
//	               A(i, j) )
//
// where r ranges over the children of i and s over the children of j, and
// the first (second) option is skipped when j (i) is a leaf. The sequence
// alignments A sum to O(|T1|·|T2|) cells over all node pairs, because
// Σ deg(i)·deg(j) = (Σ deg)·(Σ deg).

// ConstrainedDistance returns the constrained (LCA-preserving) edit distance
// between t1 and t2 under unit costs. Both trees must share one LabelTable.
func ConstrainedDistance(t1, t2 *tree.Tree) int {
	if t1.Labels != t2.Labels {
		panic("ted: trees must share a label table")
	}
	n1, n2 := t1.Size(), t2.Size()
	post1, post2 := tree.Postorder(t1), tree.Postorder(t2)

	// Under unit costs deleting (inserting) a whole subtree costs its size,
	// and erasing (creating) its child forest one less, so both differences
	// the recurrences take, xTree(i) − xTree(r) and xForest(i) − xForest(r),
	// are a difference of subtree sizes.
	delTree := tree.SubtreeSizes(t1)
	insTree := tree.SubtreeSizes(t2)

	dt := make([]int, n1*n2) // D(i, j), indexed i*n2+j
	df := make([]int, n1*n2) // F(i, j)
	// Scratch rows for the child-sequence alignment; grown on demand.
	var prev, cur []int
	for _, i := range post1 {
		ci := t1.Children(i)
		for _, j := range post2 {
			cj := t2.Children(j)

			// A(i, j): align the child sequences.
			if len(cur) < len(cj)+1 {
				cur = make([]int, len(cj)+1)
				prev = make([]int, len(cj)+1)
			}
			prev[0] = 0
			for q, s := range cj {
				prev[q+1] = prev[q] + int(insTree[s])
			}
			for _, r := range ci {
				cur[0] = prev[0] + int(delTree[r])
				for q, s := range cj {
					best := prev[q] + dt[int(r)*n2+int(s)]
					if d := prev[q+1] + int(delTree[r]); d < best {
						best = d
					}
					if d := cur[q] + int(insTree[s]); d < best {
						best = d
					}
					cur[q+1] = best
				}
				prev, cur = cur, prev
			}
			f := prev[len(cj)]

			// F options (a)/(b): bury one forest inside a child of the other.
			for _, s := range cj {
				if d := int(insTree[j]-insTree[s]) + df[int(i)*n2+int(s)]; d < f {
					f = d
				}
			}
			for _, r := range ci {
				if d := int(delTree[i]-delTree[r]) + df[int(r)*n2+int(j)]; d < f {
					f = d
				}
			}
			df[int(i)*n2+int(j)] = f

			// D options.
			d := f
			if t1.Nodes[i].Label != t2.Nodes[j].Label {
				d++
			}
			for _, s := range cj {
				if v := int(insTree[j]-insTree[s]) + dt[int(i)*n2+int(s)]; v < d {
					d = v
				}
			}
			for _, r := range ci {
				if v := int(delTree[i]-delTree[r]) + dt[int(r)*n2+int(j)]; v < d {
					d = v
				}
			}
			dt[int(i)*n2+int(j)] = d
		}
	}
	return dt[int(t1.Root())*n2+int(t2.Root())]
}

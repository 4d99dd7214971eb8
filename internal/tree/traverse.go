package tree

// Preorder returns the node ids of t in preorder (node before its children,
// children left to right).
func Preorder(t *Tree) []int32 {
	order := make([]int32, 0, t.Size())
	stack := make([]int32, 0, 16)
	stack = append(stack, t.Root())
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		order = append(order, v)
		// Push children right-to-left so the leftmost is popped first.
		cs := t.Children(v)
		for i := len(cs) - 1; i >= 0; i-- {
			stack = append(stack, cs[i])
		}
	}
	return order
}

// Postorder returns the node ids of t in postorder (children left to right,
// then the node).
func Postorder(t *Tree) []int32 {
	order := make([]int32, 0, t.Size())
	type frame struct {
		node  int32
		child int32 // next child to visit
	}
	stack := make([]frame, 0, 16)
	stack = append(stack, frame{t.Root(), t.Nodes[t.Root()].FirstChild})
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if top.child == None {
			order = append(order, top.node)
			stack = stack[:len(stack)-1]
			continue
		}
		c := top.child
		top.child = t.Nodes[c].NextSibling
		stack = append(stack, frame{c, t.Nodes[c].FirstChild})
	}
	return order
}

// LabelSeq maps a node order to the sequence of label ids along it. It is the
// building block of the STR baseline's pre/postorder traversal strings.
func LabelSeq(t *Tree, order []int32) []int32 {
	seq := make([]int32, len(order))
	for i, n := range order {
		seq[i] = t.Nodes[n].Label
	}
	return seq
}

// EulerString returns the Euler tour string of t as interned symbols: label
// id L maps to 2L on descent and 2L+1 on ascent, so open and close symbols
// of equal labels stay distinct. Both the EUL baseline's string-edit bound
// and the PQG baseline's Euler-gram bag bound are stated over this one
// encoding; see DESIGN.md.
func EulerString(t *Tree) []int32 {
	out := make([]int32, 0, 2*t.Size())
	type frame struct {
		node  int32
		child int32 // next child to visit, or None when ascending
	}
	stack := make([]frame, 0, 16)
	root := t.Root()
	out = append(out, 2*t.Nodes[root].Label)
	stack = append(stack, frame{root, t.Nodes[root].FirstChild})
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if top.child == None {
			out = append(out, 2*t.Nodes[top.node].Label+1)
			stack = stack[:len(stack)-1]
			continue
		}
		c := top.child
		top.child = t.Nodes[c].NextSibling
		out = append(out, 2*t.Nodes[c].Label)
		stack = append(stack, frame{c, t.Nodes[c].FirstChild})
	}
	return out
}

// Depths returns the depth of every node (root depth is 0), indexed by node
// id.
func Depths(t *Tree) []int32 {
	d := make([]int32, t.Size())
	for _, n := range Preorder(t) {
		if p := t.Nodes[n].Parent; p != None {
			d[n] = d[p] + 1
		}
	}
	return d
}

// SubtreeAt extracts the subtree of t rooted at n as a standalone tree
// sharing t's label table. Builder ids are assigned in preorder of the
// subtree, so child order is preserved.
func SubtreeAt(t *Tree, n int32) *Tree {
	b := NewBuilder(t.Labels)
	root := b.RootID(t.Nodes[n].Label)
	type frame struct{ src, dst int32 }
	stack := []frame{{n, root}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for c := t.Nodes[f.src].FirstChild; c != None; c = t.Nodes[c].NextSibling {
			id := b.ChildID(f.dst, t.Nodes[c].Label)
			stack = append(stack, frame{c, id})
		}
	}
	return b.MustBuild()
}

// SubtreeSizes returns, for every node id, the number of nodes in the subtree
// rooted there (including the node itself).
func SubtreeSizes(t *Tree) []int32 {
	sz := make([]int32, t.Size())
	for _, n := range Postorder(t) {
		sz[n] = 1
		for c := t.Nodes[n].FirstChild; c != None; c = t.Nodes[c].NextSibling {
			sz[n] += sz[c]
		}
	}
	return sz
}

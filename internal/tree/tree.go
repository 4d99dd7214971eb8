// Package tree implements rooted, ordered, labeled trees: the data model of
// the tree similarity join. Nodes carry interned string labels and are stored
// in a flat slice using first-child/next-sibling links, which doubles as the
// left-child/right-sibling (LC-RS) binary representation used by the join
// (see package lcrs).
package tree

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// None marks the absence of a node reference (no parent, child, or sibling).
const None int32 = -1

// LabelTable interns node labels so that trees store compact int32 label ids
// and label equality is an integer comparison. A table is typically shared by
// every tree of a collection. Ids are dense and issued in first-Intern order.
// A table is safe for concurrent use; the parsers touch it once per distinct
// label of an input, not once per node.
type LabelTable struct {
	mu  sync.RWMutex // guards ids and orders the appends to names
	ids map[string]int32
	// names is append-only and republished on every append, so Name and Len
	// read a snapshot without the lock.
	names atomic.Pointer[[]string]
}

// NewLabelTable returns an empty label table.
func NewLabelTable() *LabelTable {
	lt := &LabelTable{ids: make(map[string]int32)}
	lt.names.Store(new([]string))
	return lt
}

// Intern returns the id of name, assigning a fresh id on first use. The table
// stores its own copy, so name may be a slice of a buffer the caller reuses.
func (lt *LabelTable) Intern(name string) int32 {
	if id, ok := lt.Lookup(name); ok {
		return id
	}
	lt.mu.Lock()
	defer lt.mu.Unlock()
	id, ok := lt.ids[name]
	if !ok {
		names := append(*lt.names.Load(), strings.Clone(name))
		id = int32(len(names) - 1)
		lt.ids[names[id]] = id
		lt.names.Store(&names)
	}
	return id
}

// Lookup reports the id of name, if it has been interned.
func (lt *LabelTable) Lookup(name string) (int32, bool) {
	lt.mu.RLock()
	id, ok := lt.ids[name]
	lt.mu.RUnlock()
	return id, ok
}

// Name returns the label string for id. It panics on an id that was never
// issued by this table.
func (lt *LabelTable) Name(id int32) string { return (*lt.names.Load())[id] }

// Len returns the number of distinct labels interned so far.
func (lt *LabelTable) Len() int { return len(*lt.names.Load()) }

// Node is a single tree node. Children are reached through FirstChild and
// then NextSibling chains; the same two links, read as left/right pointers,
// form the LC-RS binary representation of the tree.
type Node struct {
	Label       int32 // id in the tree's LabelTable
	Parent      int32 // None for the root
	FirstChild  int32 // leftmost child, or None
	NextSibling int32 // sibling immediately to the right, or None
}

// Tree is a rooted ordered labeled tree. The root is always node 0. A Tree is
// immutable after construction by convention: all algorithms in this module
// treat trees as read-only, so one tree may be shared freely across
// goroutines.
type Tree struct {
	Labels *LabelTable
	Nodes  []Node
}

// Size returns the number of nodes.
func (t *Tree) Size() int { return len(t.Nodes) }

// Root returns the root node id (always 0 for a valid tree).
func (t *Tree) Root() int32 { return 0 }

// Label returns the label string of node n.
func (t *Tree) Label(n int32) string { return t.Labels.Name(t.Nodes[n].Label) }

// Children returns the child ids of n in left-to-right order. It allocates;
// hot paths should walk FirstChild/NextSibling directly.
func (t *Tree) Children(n int32) []int32 {
	var cs []int32
	for c := t.Nodes[n].FirstChild; c != None; c = t.Nodes[c].NextSibling {
		cs = append(cs, c)
	}
	return cs
}

// Validate checks the structural invariants of the tree: node 0 is the root,
// parent/child/sibling links are mutually consistent, every node is reachable
// from the root exactly once, and label ids are valid. It returns nil for a
// well-formed tree.
func (t *Tree) Validate() error {
	n := len(t.Nodes)
	if n == 0 {
		return fmt.Errorf("tree: empty tree")
	}
	if t.Nodes[0].Parent != None {
		return fmt.Errorf("tree: root has parent %d", t.Nodes[0].Parent)
	}
	seen := make([]bool, n)
	var count int
	stack := []int32{0}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if v < 0 || int(v) >= n {
			return fmt.Errorf("tree: node id %d out of range", v)
		}
		if seen[v] {
			return fmt.Errorf("tree: node %d reached twice", v)
		}
		seen[v] = true
		count++
		nd := t.Nodes[v]
		if nd.Label < 0 || int(nd.Label) >= t.Labels.Len() {
			return fmt.Errorf("tree: node %d has invalid label id %d", v, nd.Label)
		}
		for c := nd.FirstChild; c != None; c = t.Nodes[c].NextSibling {
			if c < 0 || int(c) >= n {
				return fmt.Errorf("tree: child id %d of node %d out of range", c, v)
			}
			if t.Nodes[c].Parent != v {
				return fmt.Errorf("tree: node %d lists child %d whose parent is %d", v, c, t.Nodes[c].Parent)
			}
			stack = append(stack, c)
		}
	}
	if count != n {
		return fmt.Errorf("tree: %d of %d nodes unreachable from root", n-count, n)
	}
	return nil
}

// Equal reports whether a and b are identical trees: same shape and the same
// label strings at corresponding nodes. The trees may use different label
// tables.
func Equal(a, b *Tree) bool {
	if a.Size() != b.Size() {
		return false
	}
	sameTable := a.Labels == b.Labels
	type pair struct{ x, y int32 }
	stack := []pair{{0, 0}}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		na, nb := a.Nodes[p.x], b.Nodes[p.y]
		if sameTable {
			if na.Label != nb.Label {
				return false
			}
		} else if a.Labels.Name(na.Label) != b.Labels.Name(nb.Label) {
			return false
		}
		ca, cb := na.FirstChild, nb.FirstChild
		for ca != None && cb != None {
			stack = append(stack, pair{ca, cb})
			ca = a.Nodes[ca].NextSibling
			cb = b.Nodes[cb].NextSibling
		}
		if ca != cb { // one has more children than the other
			return false
		}
	}
	return true
}

// Clone returns a deep copy of t sharing the same label table.
func (t *Tree) Clone() *Tree {
	nodes := make([]Node, len(t.Nodes))
	copy(nodes, t.Nodes)
	return &Tree{Labels: t.Labels, Nodes: nodes}
}

// Builder constructs trees incrementally. Nodes are appended with Child, so a
// builder that adds nodes parent-before-child produces nodes in preorder, but
// no algorithm in this module relies on that: only root == node 0 is
// guaranteed.
type Builder struct {
	labels *LabelTable
	nodes  []Node
	last   []int32 // last child appended to each node, or None
}

// NewBuilder returns a builder that interns labels into labels. If labels is
// nil a fresh table is created.
func NewBuilder(labels *LabelTable) *Builder {
	if labels == nil {
		labels = NewLabelTable()
	}
	return &Builder{labels: labels}
}

// Labels returns the builder's label table.
func (b *Builder) Labels() *LabelTable { return b.labels }

// Root creates the root node. It must be called exactly once, before any
// Child call.
func (b *Builder) Root(label string) int32 {
	return b.RootID(b.labels.Intern(label))
}

// RootID is Root with a pre-interned label id.
func (b *Builder) RootID(label int32) int32 {
	if len(b.nodes) != 0 {
		panic("tree: Builder.Root called twice")
	}
	b.nodes = append(b.nodes, Node{Label: label, Parent: None, FirstChild: None, NextSibling: None})
	b.last = append(b.last, None)
	return 0
}

// Child appends a new rightmost child of parent and returns its id.
func (b *Builder) Child(parent int32, label string) int32 {
	return b.ChildID(parent, b.labels.Intern(label))
}

// ChildID is Child with a pre-interned label id.
func (b *Builder) ChildID(parent int32, label int32) int32 {
	if parent < 0 || int(parent) >= len(b.nodes) {
		panic(fmt.Sprintf("tree: Builder.Child: invalid parent %d", parent))
	}
	id := int32(len(b.nodes))
	b.nodes = append(b.nodes, Node{Label: label, Parent: parent, FirstChild: None, NextSibling: None})
	b.last = append(b.last, None)
	if b.last[parent] == None {
		b.nodes[parent].FirstChild = id
	} else {
		b.nodes[b.last[parent]].NextSibling = id
	}
	b.last[parent] = id
	return id
}

// Build finalises and returns the tree. The builder must not be reused.
func (b *Builder) Build() (*Tree, error) {
	if len(b.nodes) == 0 {
		return nil, fmt.Errorf("tree: Builder.Build called before Root")
	}
	t := &Tree{Labels: b.labels, Nodes: b.nodes}
	b.nodes = nil
	b.last = nil
	return t, nil
}

// MustBuild is Build but panics on error. Intended for tests and examples.
func (b *Builder) MustBuild() *Tree {
	t, err := b.Build()
	if err != nil {
		panic(err)
	}
	return t
}

package tree

import (
	"fmt"
	"strings"
	"sync"
)

// ParseBracket parses the bracket notation used throughout the tree edit
// distance literature:
//
//	tree  := '{' label tree* '}'
//	label := any characters except '{' and '}'; both (and '\') may be
//	         escaped with a backslash
//
// For example "{a{b{d}}{c}}" is the tree with root a, children b and c, and
// grandchild d under b. Whitespace between a closing brace and the next
// opening brace is ignored so inputs may be pretty-printed; whitespace inside
// a label is preserved.
func ParseBracket(s string, labels *LabelTable) (*Tree, error) {
	if labels == nil {
		labels = NewLabelTable()
	}
	sc := scratchPool.Get().(*parseScratch)
	if sc.labels != labels { // the cached ids are another table's
		sc.labels, sc.cache = labels, [len(sc.cache)]cachedLabel{}
	}
	nodes, err := sc.parseBracket(s)
	if sc.open = sc.open[:0]; cap(sc.open) <= 1<<12 { // a huge stack is not worth pinning
		scratchPool.Put(sc)
	}
	if err != nil {
		return nil, err
	}
	return &Tree{Labels: labels, Nodes: nodes}, nil
}

// MustParseBracket is ParseBracket but panics on error. Intended for tests
// and examples with literal inputs.
func MustParseBracket(s string, labels *LabelTable) *Tree {
	t, err := ParseBracket(s, labels)
	if err != nil {
		panic(err)
	}
	return t
}

// openNode is a node whose '}' is still to come, and its last child so far.
type openNode struct{ id, last int32 }

// cachedLabel remembers the id of one label; name is the table's own copy
// and the zero value is an empty slot.
type cachedLabel struct {
	name    string
	idPlus1 int32
}

// parseScratch is what a parse needs beyond the nodes it returns: the stack
// of open nodes and a direct-mapped cache of label ids, valid for one table
// (ids never change) and kept from parse to parse, so the table is consulted
// about once per distinct label, not once per node. Pooled: a parse whose
// labels are known allocates the nodes and the Tree, nothing else.
type parseScratch struct {
	open   []openNode
	labels *LabelTable
	cache  [256]cachedLabel
	esc    []byte // unescaped bytes of the label being read
}

// appendChild appends a node as the last child of the innermost open node,
// or as the root when none is open.
func appendChild(nodes []Node, open []openNode, label int32) []Node {
	id, parent := int32(len(nodes)), None
	if n := len(open); n > 0 {
		top := &open[n-1]
		if parent = top.id; top.last == None {
			nodes[parent].FirstChild = id
		} else {
			nodes[top.last].NextSibling = id
		}
		top.last = id
	}
	return append(nodes, Node{Label: label, Parent: parent, FirstChild: None, NextSibling: None})
}

var scratchPool = sync.Pool{New: func() any { return new(parseScratch) }}

func skipSpace(s string, pos int) int {
	for pos < len(s) && (s[pos] == ' ' || s[pos] == '\t' || s[pos] == '\n' || s[pos] == '\r') {
		pos++
	}
	return pos
}

// parseBracket parses s into preorder nodes, interning into sc.labels in
// order of first appearance. The nodes are allocated once, from the count of
// '{' in s — at most 16 bytes per input byte — and nesting costs entries of
// sc.open, not goroutine stack.
func (sc *parseScratch) parseBracket(s string) ([]Node, error) {
	pos := skipSpace(s, 0)
	if pos >= len(s) || s[pos] != '{' {
		return nil, fmt.Errorf("tree: expected '{' at byte %d", pos)
	}
	nodes := make([]Node, 0, strings.Count(s, "{"))
	for { // s[pos] == '{'
		label, next, err := sc.label(s, pos+1)
		if err != nil {
			return nil, err
		}
		pos = next
		nodes = appendChild(nodes, sc.open, label)
		sc.open = append(sc.open, openNode{int32(len(nodes) - 1), None})
		for pos < len(s) && s[pos] == '}' {
			pos = skipSpace(s, pos+1)
			if sc.open = sc.open[:len(sc.open)-1]; len(sc.open) == 0 {
				if pos != len(s) {
					return nil, fmt.Errorf("tree: trailing input at byte %d: %q", pos, s[pos:])
				}
				return nodes, nil
			}
		}
		if pos >= len(s) {
			top := sc.open[len(sc.open)-1].id
			return nil, fmt.Errorf("tree: unexpected end of input, unclosed node %q", sc.labels.Name(nodes[top].Label))
		}
		if s[pos] != '{' {
			return nil, fmt.Errorf("tree: unexpected byte %q at %d", s[pos], pos)
		}
	}
}

// label reads the label starting at s[pos] up to the next unescaped brace and
// returns its id and the brace's position. The name is a slice of s, hashed
// while it is scanned, unless it holds an escape.
func (sc *parseScratch) label(s string, pos int) (int32, int, error) {
	start, h := pos, uint32(2166136261) // FNV-1a
	for pos < len(s) && s[pos] != '{' && s[pos] != '}' && s[pos] != '\\' {
		h = (h ^ uint32(s[pos])) * 16777619
		pos++
	}
	name := s[start:pos]
	if pos < len(s) && s[pos] == '\\' {
		sc.esc = append(sc.esc[:0], name...)
		for pos < len(s) && s[pos] != '{' && s[pos] != '}' {
			if s[pos] == '\\' {
				if pos++; pos >= len(s) {
					return 0, 0, fmt.Errorf("tree: dangling escape at byte %d", pos-1)
				}
			}
			h = (h ^ uint32(s[pos])) * 16777619
			sc.esc = append(sc.esc, s[pos])
			pos++
		}
		name = string(sc.esc)
	}
	if pos >= len(s) {
		return 0, 0, fmt.Errorf("tree: unexpected end of input in label")
	}
	c := &sc.cache[h%uint32(len(sc.cache))]
	if c.idPlus1 == 0 || c.name != name {
		id := sc.labels.Intern(name)
		c.name, c.idPlus1 = sc.labels.Name(id), id+1
	}
	return c.idPlus1 - 1, pos, nil
}

// FormatBracket renders t in bracket notation. The output round-trips through
// ParseBracket and is canonical: two trees are Equal iff their bracket forms
// are identical strings. Like the parser it keeps its own stack of open
// nodes, so depth is bounded by memory, not by goroutine stack.
func FormatBracket(t *Tree) string {
	var sb strings.Builder
	var stack [32]int32 // the open nodes of a shallow tree, off the heap
	open := stack[:0]
	for n := t.Root(); ; n = t.Nodes[n].NextSibling {
		// Open n and its first descendants down to a leaf.
		for ; ; n = t.Nodes[n].FirstChild {
			sb.WriteByte('{')
			escapeLabel(t.Label(n), &sb)
			if t.Nodes[n].FirstChild == None {
				break
			}
			open = append(open, n)
		}
		// Close the leaf and every open node it was the last descendant of.
		sb.WriteByte('}')
		for t.Nodes[n].NextSibling == None {
			if len(open) == 0 {
				return sb.String()
			}
			n, open = open[len(open)-1], open[:len(open)-1]
			sb.WriteByte('}')
		}
	}
}

func escapeLabel(s string, sb *strings.Builder) {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '{', '}', '\\':
			sb.WriteByte('\\')
		}
		sb.WriteByte(s[i])
	}
}

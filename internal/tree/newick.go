package tree

import (
	"fmt"
	"strings"
)

// Newick format support. Newick is the standard interchange format for
// phylogenetic trees — "(A,B,(C,D)E)F;" — and a convenient bridge to the
// biology workloads of the paper's introduction (RNA secondary structures,
// species trees). The subset implemented here covers what the similarity
// join needs:
//
//   - node names, quoted ('it''s') or unquoted, on leaves and internal nodes
//     (internal names follow the closing parenthesis); missing names become
//     the empty label;
//   - branch lengths (":0.31") are parsed and discarded — TED is defined on
//     labels and shape, not on branch lengths;
//   - bracketed comments ("[...]") are skipped anywhere whitespace may occur.
//
// Child order is preserved: Newick trees are read as rooted *ordered* trees,
// which is what the TED of this module is defined over.

type newickParser struct {
	s   string
	pos int
}

// ParseNewick parses a single Newick tree, e.g. "(A,B,(C,D)E)F;". The
// terminating semicolon is required; trailing whitespace is allowed. Like
// ParseBracket it keeps its own stack of open nodes, so nesting depth is
// bounded by memory, not by goroutine stack.
func ParseNewick(s string, lt *LabelTable) (*Tree, error) {
	if lt == nil {
		lt = NewLabelTable()
	}
	p := &newickParser{s: s}
	var (
		nodes []Node
		names []string // by node: an internal node's name arrives after its children
		open  []openNode
	)
	for done := false; !done; {
		p.skipSpace() // a subtree starts here and takes the next preorder id
		cur := int32(len(nodes))
		nodes, names = appendChild(nodes, open, 0), append(names, "")
		if p.eat('(') {
			open = append(open, openNode{cur, None})
			continue
		}
		for { // cur has all its children: name it, then close parents while ')' follows
			name, err := p.name()
			if err != nil {
				return nil, err
			}
			names[cur] = name
			p.skipSpace()
			if p.eat(':') { // branch length: parsed and discarded
				p.skipSpace()
				start := p.pos
				for p.pos < len(p.s) && isNewickDigit(p.s[p.pos]) {
					p.pos++
				}
				if p.pos == start {
					return nil, p.errf("expected branch length after ':'")
				}
			}
			if done = len(open) == 0; done {
				break
			}
			p.skipSpace()
			if p.eat(',') {
				break
			}
			if !p.eat(')') {
				return nil, p.errf("expected ')' or ','")
			}
			cur, open = open[len(open)-1].id, open[:len(open)-1]
		}
	}
	p.skipSpace()
	if !p.eat(';') {
		return nil, p.errf("expected ';'")
	}
	p.skipSpace()
	if p.pos != len(p.s) {
		return nil, p.errf("trailing input after ';'")
	}
	for i := range nodes {
		nodes[i].Label = lt.Intern(names[i])
	}
	return &Tree{Labels: lt, Nodes: nodes}, nil
}

// MustParseNewick is ParseNewick but panics on error. Intended for tests and
// examples.
func MustParseNewick(s string, lt *LabelTable) *Tree {
	t, err := ParseNewick(s, lt)
	if err != nil {
		panic(err)
	}
	return t
}

func (p *newickParser) errf(format string, args ...any) error {
	return fmt.Errorf("newick: %s at offset %d", fmt.Sprintf(format, args...), p.pos)
}

func (p *newickParser) eat(c byte) bool {
	if p.pos < len(p.s) && p.s[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

// skipSpace consumes whitespace and [comments].
func (p *newickParser) skipSpace() {
	for p.pos < len(p.s) {
		switch p.s[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		case '[':
			end := strings.IndexByte(p.s[p.pos:], ']')
			if end < 0 {
				p.pos = len(p.s) // unterminated comment: let the caller fail
				return
			}
			p.pos += end + 1
		default:
			return
		}
	}
}

func isNewickDigit(c byte) bool {
	return c >= '0' && c <= '9' || c == '.' || c == '-' || c == '+' || c == 'e' || c == 'E'
}

func (p *newickParser) name() (string, error) {
	p.skipSpace()
	if p.eat('\'') { // quoted: '' escapes a quote
		var sb strings.Builder
		for {
			if p.pos >= len(p.s) {
				return "", p.errf("unterminated quoted name")
			}
			c := p.s[p.pos]
			p.pos++
			if c == '\'' {
				if p.pos < len(p.s) && p.s[p.pos] == '\'' {
					sb.WriteByte('\'')
					p.pos++
					continue
				}
				return sb.String(), nil
			}
			sb.WriteByte(c)
		}
	}
	start := p.pos
	for p.pos < len(p.s) && !isNewickSpecial(p.s[p.pos]) {
		p.pos++
	}
	return p.s[start:p.pos], nil
}

func isNewickSpecial(c byte) bool {
	switch c {
	case '(', ')', ',', ':', ';', '[', ']', '\'', ' ', '\t', '\n', '\r':
		return true
	}
	return false
}

// FormatNewick renders t in Newick notation with a terminating semicolon.
// Names that contain Newick metacharacters are quoted, so the output
// round-trips through ParseNewick. Like ParseNewick it keeps its own stack
// of open nodes.
func FormatNewick(t *Tree) string {
	var sb strings.Builder
	var stack [32]int32 // the open nodes of a shallow tree, off the heap
	open := stack[:0]
	for n := t.Root(); ; n = t.Nodes[n].NextSibling {
		// Open n and its first descendants down to a leaf, and name the leaf.
		for ; t.Nodes[n].FirstChild != None; n = t.Nodes[n].FirstChild {
			sb.WriteByte('(')
			open = append(open, n)
		}
		writeNewickName(&sb, t.Label(n))
		// Close and name every open node n was the last descendant of.
		for t.Nodes[n].NextSibling == None {
			if len(open) == 0 {
				sb.WriteByte(';')
				return sb.String()
			}
			n, open = open[len(open)-1], open[:len(open)-1]
			sb.WriteByte(')')
			writeNewickName(&sb, t.Label(n))
		}
		sb.WriteByte(',')
	}
}

func writeNewickName(sb *strings.Builder, name string) {
	needQuote := false
	for i := 0; i < len(name); i++ {
		if isNewickSpecial(name[i]) {
			needQuote = true
			break
		}
	}
	if !needQuote {
		sb.WriteString(name)
		return
	}
	sb.WriteByte('\'')
	sb.WriteString(strings.ReplaceAll(name, "'", "''"))
	sb.WriteByte('\'')
}

// ParseDotBracket converts an RNA secondary structure in Vienna dot-bracket
// notation into its standard rooted ordered tree encoding: every base pair
// (matching parentheses) becomes an internal node labeled "P", every
// unpaired position (dot) a leaf labeled with its base from seq (or "N" when
// seq is empty), all under a virtual "root" node. seq, when non-empty, must
// have the structure's length.
func ParseDotBracket(structure, seq string, lt *LabelTable) (*Tree, error) {
	if lt == nil {
		lt = NewLabelTable()
	}
	if seq != "" && len(seq) != len(structure) {
		return nil, fmt.Errorf("dotbracket: sequence length %d != structure length %d", len(seq), len(structure))
	}
	b := NewBuilder(lt)
	stack := []int32{b.Root("root")}
	for i := 0; i < len(structure); i++ {
		top := stack[len(stack)-1]
		switch structure[i] {
		case '(':
			stack = append(stack, b.Child(top, "P"))
		case ')':
			if len(stack) == 1 {
				return nil, fmt.Errorf("dotbracket: unbalanced ')' at %d", i)
			}
			stack = stack[:len(stack)-1]
		case '.':
			base := "N"
			if seq != "" {
				base = string(seq[i])
			}
			b.Child(top, base)
		default:
			return nil, fmt.Errorf("dotbracket: unexpected %q at %d", structure[i], i)
		}
	}
	if len(stack) != 1 {
		return nil, fmt.Errorf("dotbracket: %d unmatched '('", len(stack)-1)
	}
	return b.Build()
}

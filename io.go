package treejoin

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"treejoin/internal/segstore"
	"treejoin/internal/tree"
)

// ReadBracketLines reads one bracket-notation tree per non-empty line from r.
// Lines starting with '#' are comments. All trees intern into lt (a fresh
// table if nil). Large inputs are parsed on every core (GOMAXPROCS), yet
// label ids follow first appearance in r whatever the core count, so a read
// is reproducible bit for bit; memory beyond the trees is a few chunks of
// text, not the input. On error — the lowest failing line is reported — no
// trees are returned, but lt may keep labels of the lines before it.
func ReadBracketLines(r io.Reader, lt *LabelTable) ([]*Tree, error) {
	return readLines(r, lt, ParseBracket)
}

// chunkBytes is the text a worker parses per hand-off: cut by bytes, not by
// trees, so a few huge trees spread over the workers as many small ones do.
const chunkBytes = 64 << 10

// chunk is a run of consecutive tree lines. A worker parses it into a private
// label table; the reader merges that table into the caller's, chunk by chunk
// in input order and each in local-id order — the order in which labels first
// appear in the input, so the ids are those of a sequential read — and a
// worker then rewrites the chunk's trees to the merged ids.
type chunk struct {
	text   strings.Builder
	lines  []lineRef
	trees  []*Tree
	err    error         // the first failing line, with its number
	local  *LabelTable   // nil when parsed straight into the caller's table
	ids    []int32       // local id → id in the caller's table; set by the merge
	parsed chan struct{} // closed once trees and err are set
}

type lineRef struct{ end, no int } // end offset in chunk.text, 1-based line number

func (c *chunk) parse(lt *LabelTable, parseLine func(string, *LabelTable) (*Tree, error)) {
	text, lo := c.text.String(), 0
	c.trees = make([]*Tree, 0, len(c.lines))
	for _, ln := range c.lines {
		t, err := parseLine(text[lo:ln.end], lt)
		if err != nil {
			c.err = fmt.Errorf("treejoin: line %d: %w", ln.no, err)
			break
		}
		c.trees, lo = append(c.trees, t), ln.end
	}
	c.text.Reset()
}

// readLines is the line reader behind ReadBracketLines and ReadNewickLines:
// comment and blank handling, the 64 MiB line cap, the chunking and the
// "line N" error wrapping live here once. An input of a single chunk is
// parsed on the calling goroutine, straight into lt.
func readLines(r io.Reader, lt *LabelTable, parseLine func(string, *LabelTable) (*Tree, error)) ([]*Tree, error) {
	if lt == nil {
		lt = NewLabelTable()
	}
	var (
		chunks []*chunk
		work   chan *chunk
		wg     sync.WaitGroup
		failed atomic.Bool // stops the scan; chunks already handed off still finish
	)
	worker := func() {
		defer wg.Done()
		for c := range work {
			if c.ids == nil {
				c.parse(c.local, parseLine)
				if c.err != nil {
					failed.Store(true)
				}
				close(c.parsed)
				continue
			}
			for _, t := range c.trees {
				t.Labels = lt
				for i := range t.Nodes {
					t.Nodes[i].Label = c.ids[t.Nodes[i].Label]
				}
			}
		}
	}
	handOff := func(c *chunk) {
		if work == nil {
			n := runtime.GOMAXPROCS(0)
			work = make(chan *chunk, n) // lets the scanner read one chunk per worker ahead
			for wg.Add(n); n > 0; n-- {
				go worker()
			}
		}
		c.local, c.parsed = NewLabelTable(), make(chan struct{})
		work <- c
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26) // trees can be long single lines
	cur := new(chunk)
	for no := 1; !failed.Load() && sc.Scan(); no++ {
		line := sc.Bytes()
		if rest := bytes.TrimLeft(line, " \t\r"); len(rest) == 0 || rest[0] == '#' {
			continue
		}
		if n := cur.text.Len(); n > 0 && n+len(line) > chunkBytes {
			handOff(cur)
			chunks, cur = append(chunks, cur), new(chunk)
		}
		if cur.text.Len() == 0 {
			cur.text.Grow(max(chunkBytes, len(line)))
		}
		cur.text.Write(line)
		cur.lines = append(cur.lines, lineRef{cur.text.Len(), no})
	}
	if chunks = append(chunks, cur); work == nil {
		cur.parse(lt, parseLine)
	} else {
		handOff(cur)
	}
	var out []*Tree
	var err error
	for _, c := range chunks {
		if c.local != nil {
			<-c.parsed
		}
		if err = c.err; err != nil {
			break
		}
		if out = append(out, c.trees...); c.local != nil {
			c.ids = make([]int32, c.local.Len())
			for i := range c.ids {
				c.ids[i] = lt.Intern(c.local.Name(int32(i)))
			}
			work <- c
		}
	}
	if work != nil {
		close(work)
		wg.Wait()
	}
	if err == nil && sc.Err() != nil {
		err = fmt.Errorf("treejoin: reading trees: %w", sc.Err())
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ReadBracketFile reads a bracket-notation dataset (one tree per line) from
// path.
func ReadBracketFile(path string, lt *LabelTable) ([]*Tree, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("treejoin: %w", err)
	}
	defer f.Close()
	return ReadBracketLines(f, lt)
}

// ParseNewick parses a tree in Newick notation, e.g. "(A,B,(C,D)E)F;".
// Quoted names, comments, and branch lengths are accepted; branch lengths
// are discarded (TED is defined on labels and shape). Child order is
// preserved.
func ParseNewick(s string, lt *LabelTable) (*Tree, error) { return tree.ParseNewick(s, lt) }

// MustParseNewick is ParseNewick but panics on error.
func MustParseNewick(s string, lt *LabelTable) *Tree { return tree.MustParseNewick(s, lt) }

// FormatNewick renders t in Newick notation; the output round-trips through
// ParseNewick.
func FormatNewick(t *Tree) string { return tree.FormatNewick(t) }

// ParseDotBracket converts an RNA secondary structure in Vienna dot-bracket
// notation into its standard tree encoding: base pairs become "P" nodes,
// unpaired positions become leaves labeled by their base in seq ("N" when
// seq is empty), all under a virtual "root". seq, when non-empty, must have
// the structure's length.
func ParseDotBracket(structure, seq string, lt *LabelTable) (*Tree, error) {
	return tree.ParseDotBracket(structure, seq, lt)
}

// WriteBracketLines writes ts to w, one bracket-notation tree per line.
func WriteBracketLines(w io.Writer, ts []*Tree) error {
	bw := bufio.NewWriter(w)
	for _, t := range ts {
		bw.WriteString(FormatBracket(t)) // a write error sticks: Flush reports it
		bw.WriteByte('\n')
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("treejoin: writing trees: %w", err)
	}
	return nil
}

// ReadNewickLines is ReadBracketLines for one Newick tree per line: the same
// comments, parallel read, label-id order and error contract.
func ReadNewickLines(r io.Reader, lt *LabelTable) ([]*Tree, error) {
	return readLines(r, lt, ParseNewick)
}

// WriteDataset encodes lt and ts in the binary dataset format: the label
// table once, then each tree as its varint preorder (label, childCount)
// stream, under a CRC trailer. It reloads a collection without re-interning
// its labels, faster than bracket text parses on one core and about as fast
// as the parse on two, which runs on every core (BenchmarkDatasetCodec
// measures both). Every tree must use lt as its label table; nothing is
// written if one does not.
func WriteDataset(w io.Writer, lt *LabelTable, ts []*Tree) error {
	return segstore.WriteDataset(w, lt, ts)
}

// ReadDataset decodes a binary dataset written by WriteDataset. It reads r
// to its end and verifies the checksum before it parses anything; corrupt or
// truncated input is reported as an error, never as wrong trees.
func ReadDataset(r io.Reader) (*LabelTable, []*Tree, error) { return segstore.ReadDataset(r) }

// WriteDatasetFile is WriteDataset to a file path. The file is replaced
// atomically (a synced temporary file renamed over path), so a write that
// fails or is rejected leaves an existing file at path as it was.
func WriteDatasetFile(path string, lt *LabelTable, ts []*Tree) error {
	return segstore.WriteDatasetFile(path, lt, ts)
}

// ReadDatasetFile is ReadDataset from a file path.
func ReadDatasetFile(path string) (*LabelTable, []*Tree, error) {
	return segstore.ReadDatasetFile(path)
}

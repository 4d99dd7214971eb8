package treejoin_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"treejoin"
)

func TestReadNewickLines(t *testing.T) {
	in := `# species trees
(A,B)C;
(A,(B,D)E)F;

# blank lines and comments are skipped
G;
`
	lt := treejoin.NewLabelTable()
	ts, err := treejoin.ReadNewickLines(strings.NewReader(in), lt)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 3 {
		t.Fatalf("got %d trees", len(ts))
	}
	if got := treejoin.FormatNewick(ts[1]); got != "(A,(B,D)E)F;" {
		t.Fatalf("tree 1 = %q", got)
	}
	if _, err := treejoin.ReadNewickLines(strings.NewReader("(A,B;\n"), lt); err == nil {
		t.Fatal("malformed line accepted")
	}
}

func TestDatasetRoundTripPublic(t *testing.T) {
	lt := treejoin.NewLabelTable()
	ts := []*treejoin.Tree{
		treejoin.MustParseBracket("{a{b}{c}}", lt),
		treejoin.MustParseBracket("{d{e{f}}}", lt),
	}
	var buf bytes.Buffer
	if err := treejoin.WriteDataset(&buf, lt, ts); err != nil {
		t.Fatal(err)
	}
	_, ts2, err := treejoin.ReadDataset(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts2) != 2 {
		t.Fatalf("got %d trees", len(ts2))
	}
	for i := range ts {
		if treejoin.FormatBracket(ts[i]) != treejoin.FormatBracket(ts2[i]) {
			t.Fatalf("tree %d changed", i)
		}
	}
	// Joining the decoded collection works (labels re-interned consistently).
	pairs, _ := selfJoin(t, ts2, 10)
	if len(pairs) != 1 {
		t.Fatalf("join on decoded trees: %d pairs", len(pairs))
	}
}

// TestRejectedDatasetWriteKeepsFile: a WriteDatasetFile that rejects its
// trees leaves the file it was to replace readable and unchanged.
func TestRejectedDatasetWriteKeepsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ds.tjds")
	lt := treejoin.NewLabelTable()
	ts := []*treejoin.Tree{treejoin.MustParseBracket("{a{b}{c}}", lt)}
	if err := treejoin.WriteDatasetFile(path, lt, ts); err != nil {
		t.Fatal(err)
	}
	foreign := treejoin.MustParseBracket("{a}", treejoin.NewLabelTable())
	if err := treejoin.WriteDatasetFile(path, lt, append(ts, foreign)); err == nil {
		t.Fatal("tree of another label table accepted")
	}
	_, ts2, err := treejoin.ReadDatasetFile(path)
	if err != nil {
		t.Fatalf("the earlier file does not read after the rejected write: %v", err)
	}
	if len(ts2) != 1 || treejoin.FormatBracket(ts2[0]) != treejoin.FormatBracket(ts[0]) {
		t.Fatalf("the earlier file changed: %d trees", len(ts2))
	}
}

func TestNewickDotBracketPublic(t *testing.T) {
	lt := treejoin.NewLabelTable()
	nw := treejoin.MustParseNewick("(A,B)C;", lt)
	if nw.Size() != 3 {
		t.Fatalf("newick size %d", nw.Size())
	}
	db, err := treejoin.ParseDotBracket("((.))", "GGACC", lt)
	if err != nil {
		t.Fatal(err)
	}
	if db.Size() != 4 { // root + 2 pairs + 1 base
		t.Fatalf("dotbracket size %d", db.Size())
	}
	if _, err := treejoin.ParseDotBracket("((", "", lt); err == nil {
		t.Fatal("unbalanced accepted")
	}
}

// readSequential is the reference for the chunked reader: a plain loop of
// ParseBracket per line into one table, with bufio.ScanLines' line rule (one
// trailing CR dropped) and the reader's blank/comment rule.
func readSequential(text string, lt *treejoin.LabelTable) ([]*treejoin.Tree, error) {
	var out []*treejoin.Tree
	for i, line := range strings.Split(text, "\n") {
		line = strings.TrimSuffix(line, "\r")
		if rest := strings.TrimLeft(line, " \t\r"); rest == "" || rest[0] == '#' {
			continue
		}
		t, err := treejoin.ParseBracket(line, lt)
		if err != nil {
			return nil, fmt.Errorf("treejoin: line %d: %w", i+1, err)
		}
		out = append(out, t)
	}
	return out, nil
}

// checkReadMatchesSequential reads text with ReadBracketLines and with the
// sequential reference, each into its own table pre-seeded with seed, and
// requires the same outcome: equal errors, or the same trees with identical
// node arrays (so identical label ids) and tables with identical name order.
func checkReadMatchesSequential(t *testing.T, text string, seed []string) {
	t.Helper()
	lt, ref := treejoin.NewLabelTable(), treejoin.NewLabelTable()
	for _, name := range seed {
		lt.Intern(name)
		ref.Intern(name)
	}
	want, wantErr := readSequential(text, ref)
	got, err := treejoin.ReadBracketLines(strings.NewReader(text), lt)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("error %v, sequential read says %v", err, wantErr)
	}
	if err != nil {
		if got != nil {
			t.Fatalf("trees returned beside error %v", err)
		}
		return
	}
	if len(got) != len(want) {
		t.Fatalf("read %d trees, sequential read %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Labels != lt || !slices.Equal(got[i].Nodes, want[i].Nodes) {
			t.Fatalf("tree %d differs from the sequential read (own table: %v)", i, got[i].Labels == lt)
		}
	}
	if lt.Len() != ref.Len() {
		t.Fatalf("table holds %d labels, sequential read %d", lt.Len(), ref.Len())
	}
	for id := int32(0); int(id) < lt.Len(); id++ {
		if lt.Name(id) != ref.Name(id) {
			t.Fatalf("label id %d is %q, sequential read issued it to %q", id, lt.Name(id), ref.Name(id))
		}
	}
}

// randomBracketLines renders n random trees of 1..maxSize nodes, one a line.
// Labels come from a small shared alphabet (with braces, backslashes and the
// empty label in it, escaped on output) or are private to their tree, so
// every chunk both shares labels with the others and introduces its own.
// Comments and blank lines are sprinkled throughout and forced wherever the
// text crosses a multiple of the reader's 64 KiB chunk size.
func randomBracketLines(rng *rand.Rand, n, maxSize int, eol string) string {
	shared := []string{"a", "b", "", "x y", `{`, `}`, `\`, `a\{b}`, "long label with spaces", "ß∂"}
	esc := strings.NewReplacer(`\`, `\\`, `{`, `\{`, `}`, `\}`)
	var sb strings.Builder
	nextMark := 64 << 10
	for i := 0; i < n; i++ {
		if sb.Len() >= nextMark || rng.Intn(20) == 0 {
			sb.WriteString([]string{"# comment {not a tree", "", "  \t", " # indented"}[rng.Intn(4)] + eol)
			if sb.Len() >= nextMark {
				nextMark += 64 << 10
			}
		}
		size, depth := 1+rng.Intn(maxSize), 0
		for made := 0; made < size; {
			if depth > 1 && rng.Intn(3) == 0 {
				sb.WriteString("}" + []string{"", "", " ", "\t"}[rng.Intn(4)])
				depth--
				continue
			}
			label := shared[rng.Intn(len(shared))]
			if rng.Intn(8) == 0 {
				label = fmt.Sprintf("t%d.%d", i, rng.Intn(4))
			}
			sb.WriteString("{" + esc.Replace(label))
			depth++
			made++
		}
		sb.WriteString(strings.Repeat("}", depth) + eol)
	}
	return sb.String()
}

// TestReadBracketLinesMatchesSequential is the differential property test of
// the chunk-parallel reader: whatever the core count and however the input
// falls into chunks, ReadBracketLines returns what a sequential read returns,
// bit for bit — and for a corrupted line, the same line number and message,
// the lowest when several lines are bad.
func TestReadBracketLinesMatchesSequential(t *testing.T) {
	seed := []string{"never used", "b", `}`, "t3.1"}
	for _, procs := range []int{1, 2, 8} {
		for ci, c := range []struct {
			n, maxSize int
			eol        string
		}{{1, 1, "\n"}, {1, 2000, ""}, {3000, 60, "\n"}, {40, 2000, "\n"}, {700, 200, "\r\n"}} {
			t.Run(fmt.Sprintf("procs=%d/case=%d", procs, ci), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				rng := rand.New(rand.NewSource(int64(100*procs + ci)))
				text := randomBracketLines(rng, c.n, c.maxSize, c.eol)
				checkReadMatchesSequential(t, text, seed)
				checkReadMatchesSequential(t, text, nil)

				// Corrupt one tree line, then a second one: the first is reported.
				lines := strings.SplitAfter(text, "\n")
				for _, k := range []int{rng.Intn(len(lines)), rng.Intn(len(lines))} {
					if i := strings.LastIndexByte(lines[k], '}'); i >= 0 {
						lines[k] = lines[k][:i] + "{" + lines[k][i+1:]
					}
					checkReadMatchesSequential(t, strings.Join(lines, ""), seed)
				}
			})
		}
	}
}

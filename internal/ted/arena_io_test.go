package ted

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"treejoin/internal/tree"
)

// TestViewCellsRoundTrip: AppendViewCells → ViewFromCells reproduces every
// array and cost of the original view, for random trees down to a single
// node, and ViewCellCount predicts the flattened length exactly.
func TestViewCellsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	lt := tree.NewLabelTable()
	var trees []*tree.Tree
	b := tree.NewBuilder(lt)
	b.Root("a")
	trees = append(trees, b.MustBuild())
	for i := 0; i < 60; i++ {
		trees = append(trees, randTree(rng, 40, 4, lt))
	}
	vs := BuildViews(trees)
	for i, v := range vs {
		cells := AppendViewCells(nil, v)
		if len(cells) != ViewCellCount(trees[i].Size(), Leaves(trees[i])) {
			t.Fatalf("tree %d: %d cells, ViewCellCount says %d",
				i, len(cells), ViewCellCount(trees[i].Size(), Leaves(trees[i])))
		}
		got, err := ViewFromCells(trees[i], cells, v.CostL, v.CostR)
		if err != nil {
			t.Fatalf("tree %d: round-trip rejected: %v", i, err)
		}
		checkViewsEqual(t, i, got, v)
		if again := AppendViewCells(nil, got); !reflect.DeepEqual(again, cells) {
			t.Fatalf("tree %d: a decoded view encodes to different cells", i)
		}
	}
}

func checkViewsEqual(t *testing.T, i int, got, want *TreeView) {
	t.Helper()
	for _, pair := range []struct {
		name      string
		got, want []int32
	}{
		{"Labels", got.Labels, want.Labels}, {"Lml", got.Lml, want.Lml},
		{"RLabels", got.RLabels, want.RLabels}, {"Rml", got.Rml, want.Rml},
		{"Keyroots", got.Keyroots, want.Keyroots}, {"KrByLml", got.KrByLml, want.KrByLml},
		{"RKeyroots", got.RKeyroots, want.RKeyroots}, {"RKrByLml", got.RKrByLml, want.RKrByLml},
		{"Parent", got.Parent, want.Parent}, {"RParent", got.RParent, want.RParent},
		{"SortedLabels", got.SortedLabels, want.SortedLabels},
	} {
		if !reflect.DeepEqual(pair.got, pair.want) {
			t.Fatalf("tree %d: %s differs: %v vs %v", i, pair.name, pair.got, pair.want)
		}
	}
	if got.CostL != want.CostL || got.CostR != want.CostR {
		t.Fatalf("tree %d: costs (%d,%d), want (%d,%d)", i, got.CostL, got.CostR, want.CostL, want.CostR)
	}
	if got.T != want.T {
		t.Fatalf("tree %d: view tree pointer differs", i)
	}
}

// TestViewFromCellsRejects pins targeted corruptions: every mutation below
// breaks an invariant the kernel relies on and must be rejected with
// ErrBadView — never accepted, never a panic.
func TestViewFromCellsRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	lt := tree.NewLabelTable()
	tr := randTree(rng, 30, 3, lt)
	v := BuildViews([]*tree.Tree{tr})[0]
	good := AppendViewCells(nil, v)
	n := tr.Size()
	leaves := Leaves(tr)

	// Offsets of the arrays within the flattened layout.
	const (
		labelsOff = 0
	)
	lmlOff := n
	krOff := 4 * n
	depthOff := 4*n + 4*leaves
	parentOff := depthOff + n
	sizeOff := depthOff + 3*n
	sortedOff := depthOff + 4*n

	cases := []struct {
		name   string
		mutate func(c []int32) []int32
	}{
		{"truncated", func(c []int32) []int32 { return c[:len(c)-1] }},
		{"extended", func(c []int32) []int32 { return append(c, 0) }},
		{"label out of range", func(c []int32) []int32 { c[labelsOff] = int32(lt.Len()); return c }},
		{"label negative", func(c []int32) []int32 { c[labelsOff] = -1; return c }},
		{"lml above index", func(c []int32) []int32 { c[lmlOff] = 1; return c }}, // lml[0] must be 0
		{"keyroot not root-terminated", func(c []int32) []int32 { c[krOff+leaves-1] = int32(n - 2); return c }},
		{"keyroots descending", func(c []int32) []int32 {
			if leaves < 2 {
				t.Skip("needs ≥2 leaves")
			}
			c[krOff], c[krOff+1] = c[krOff+1], c[krOff]
			return c
		}},
		{"root depth nonzero", func(c []int32) []int32 { c[depthOff+n-1] = 1; return c }},
		{"depth inconsistent", func(c []int32) []int32 { c[depthOff] += 5; return c }},
		{"parent not increasing", func(c []int32) []int32 { c[parentOff] = 0; return c }},
		{"root parent set", func(c []int32) []int32 { c[parentOff+n-1] = 0; return c }},
		{"subtree size wrong", func(c []int32) []int32 { c[sizeOff]++; return c }},
		{"sorted labels unsorted", func(c []int32) []int32 {
			c[sortedOff] = c[sortedOff+n-1] + 1
			return c
		}},
	}
	for _, tc := range cases {
		cells := append([]int32(nil), good...)
		cells = tc.mutate(cells)
		if _, err := ViewFromCells(tr, cells, v.CostL, v.CostR); !errors.Is(err, ErrBadView) {
			t.Fatalf("%s: err = %v, want ErrBadView", tc.name, err)
		}
	}
	if _, err := ViewFromCells(tr, append([]int32(nil), good...), -1, v.CostR); !errors.Is(err, ErrBadView) {
		t.Fatalf("negative cost accepted")
	}
}

// TestViewFromCellsFuzzKernelSafe is the validation's real contract: randomly
// perturbed cells either get rejected, or — when the perturbation happens to
// keep every invariant — produce a view the banded kernel can run without
// panicking or over-reading. (The verdict may differ from the true distance;
// end-to-end integrity is the segment store's content hash, not this layer.)
func TestViewFromCellsFuzzKernelSafe(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	lt := tree.NewLabelTable()
	s := AcquireScratch()
	defer ReleaseScratch(s)
	for iter := 0; iter < 400; iter++ {
		tr := randTree(rng, 24, 3, lt)
		other := randTree(rng, 24, 3, lt)
		ov := BuildViews([]*tree.Tree{other})[0]
		v := BuildViews([]*tree.Tree{tr})[0]
		cells := AppendViewCells(nil, v)
		for k := 1 + rng.Intn(3); k > 0; k-- {
			cells[rng.Intn(len(cells))] = int32(rng.Intn(80) - 10)
		}
		got, err := ViewFromCells(tr, cells, v.CostL, v.CostR)
		if err != nil {
			if !errors.Is(err, ErrBadView) {
				t.Fatalf("iter %d: non-ErrBadView rejection: %v", iter, err)
			}
			continue
		}
		for _, tau := range []int{0, 2, 5} {
			DistanceBoundedView(got, ov, tau, s, nil)
			DistanceBoundedView(ov, got, tau, s, nil)
		}
	}
}

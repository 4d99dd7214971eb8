package tree_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"treejoin/internal/tree"
)

// randomTree builds a uniformly random tree with up to maxN nodes and labels
// drawn from an alphabet of the given size. Helper shared by the tests in
// this package.
func randomTree(rng *rand.Rand, maxN, alphabet int, labels *tree.LabelTable) *tree.Tree {
	if labels == nil {
		labels = tree.NewLabelTable()
	}
	n := 1 + rng.Intn(maxN)
	b := tree.NewBuilder(labels)
	lab := func() string { return string(rune('a' + rng.Intn(alphabet))) }
	b.Root(lab())
	for i := 1; i < n; i++ {
		parent := int32(rng.Intn(i))
		b.Child(parent, lab())
	}
	return b.MustBuild()
}

func TestBuilderBasics(t *testing.T) {
	b := tree.NewBuilder(nil)
	r := b.Root("a")
	c1 := b.Child(r, "b")
	c2 := b.Child(r, "c")
	g := b.Child(c1, "d")
	tr := b.MustBuild()
	if tr.Size() != 4 {
		t.Fatalf("size = %d, want 4", tr.Size())
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := tr.Label(r); got != "a" {
		t.Errorf("root label = %q", got)
	}
	if cs := tr.Children(r); len(cs) != 2 || cs[0] != c1 || cs[1] != c2 {
		t.Errorf("children(root) = %v", cs)
	}
	if cs := tr.Children(c1); len(cs) != 1 || cs[0] != g {
		t.Errorf("children(b) = %v", cs)
	}
	if tr.Nodes[g].Parent != c1 {
		t.Errorf("parent(d) = %d", tr.Nodes[g].Parent)
	}
}

func TestBuilderChildOrder(t *testing.T) {
	b := tree.NewBuilder(nil)
	r := b.Root("r")
	want := []string{"c0", "c1", "c2", "c3", "c4"}
	for _, l := range want {
		b.Child(r, l)
	}
	tr := b.MustBuild()
	var got []string
	for _, c := range tr.Children(r) {
		got = append(got, tr.Label(c))
	}
	if len(got) != len(want) {
		t.Fatalf("children = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("child %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestBuilderBuildBeforeRoot(t *testing.T) {
	b := tree.NewBuilder(nil)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build before Root should fail")
	}
}

func TestLabelTable(t *testing.T) {
	lt := tree.NewLabelTable()
	a := lt.Intern("alpha")
	b := lt.Intern("beta")
	if a == b {
		t.Fatal("distinct labels share an id")
	}
	if lt.Intern("alpha") != a {
		t.Fatal("re-interning changed the id")
	}
	if lt.Name(a) != "alpha" || lt.Name(b) != "beta" {
		t.Fatal("Name mismatch")
	}
	if lt.Len() != 2 {
		t.Fatalf("Len = %d", lt.Len())
	}
	if id, ok := lt.Lookup("beta"); !ok || id != b {
		t.Fatal("Lookup(beta) failed")
	}
	if _, ok := lt.Lookup("gamma"); ok {
		t.Fatal("Lookup(gamma) should miss")
	}
}

func TestEqual(t *testing.T) {
	lt := tree.NewLabelTable()
	a := tree.MustParseBracket("{a{b}{c{d}}}", lt)
	b := tree.MustParseBracket("{a{b}{c{d}}}", lt)
	if !tree.Equal(a, b) {
		t.Fatal("identical trees not Equal")
	}
	cases := []string{
		"{a{b}{c{e}}}", // label differs
		"{a{c{d}}{b}}", // order differs
		"{a{b}{c}}",    // size differs
		"{a{b{c{d}}}}", // shape differs
	}
	for _, s := range cases {
		o := tree.MustParseBracket(s, lt)
		if tree.Equal(a, o) {
			t.Errorf("Equal(%s, %s) = true", tree.FormatBracket(a), s)
		}
	}
	// Different label tables, same content.
	c := tree.MustParseBracket("{a{b}{c{d}}}", tree.NewLabelTable())
	if !tree.Equal(a, c) {
		t.Fatal("Equal across label tables failed")
	}
}

func TestClone(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		orig := randomTree(rng, 40, 5, nil)
		cl := orig.Clone()
		if !tree.Equal(orig, cl) {
			t.Fatal("clone differs")
		}
		cl.Nodes[0].Label = cl.Labels.Intern("zz-mutated")
		if tree.Equal(orig, cl) && orig.Label(0) != "zz-mutated" {
			t.Fatal("mutation of clone leaked into original")
		}
	}
}

func TestValidateRejectsCorruption(t *testing.T) {
	lt := tree.NewLabelTable()
	base := tree.MustParseBracket("{a{b{c}}{d}}", lt)
	if err := base.Validate(); err != nil {
		t.Fatalf("valid tree rejected: %v", err)
	}

	cyc := base.Clone()
	cyc.Nodes[2].FirstChild = 0 // child edge back to the root
	if err := cyc.Validate(); err == nil {
		t.Error("cycle not detected")
	}

	badParent := base.Clone()
	badParent.Nodes[1].Parent = 3
	if err := badParent.Validate(); err == nil {
		t.Error("inconsistent parent not detected")
	}

	empty := &tree.Tree{Labels: lt}
	if err := empty.Validate(); err == nil {
		t.Error("empty tree not detected")
	}
}

func TestRandomTreesValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		tr := randomTree(rng, 60, 4, nil)
		if err := tr.Validate(); err != nil {
			t.Fatalf("random tree invalid: %v\n%s", err, tree.FormatBracket(tr))
		}
	}
}

// TestLabelTableConcurrent: Intern, Lookup, Name and Len from many
// goroutines at once (run under -race): every name gets one id, ids stay
// dense, and a reader never sees an id whose name is not there yet.
func TestLabelTableConcurrent(t *testing.T) {
	lt := tree.NewLabelTable()
	const workers, labels = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < labels; i++ {
				name := fmt.Sprintf("l%d", (i*7+w)%labels)
				id := lt.Intern(name)
				if got := lt.Name(id); got != name || int(id) >= lt.Len() {
					t.Errorf("Intern(%q) = %d, but Name says %q and Len %d", name, id, got, lt.Len())
				}
				if again, ok := lt.Lookup(name); !ok || again != id {
					t.Errorf("Lookup(%q) = %d, %v after Intern gave %d", name, again, ok, id)
				}
			}
		}()
	}
	wg.Wait()
	if lt.Len() != labels {
		t.Fatalf("%d labels interned, want %d", lt.Len(), labels)
	}
}

package sim_test

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"treejoin/internal/sim"
	"treejoin/internal/tree"
)

func TestSortPairs(t *testing.T) {
	ps := []sim.Pair{{I: 2, J: 3}, {I: 0, J: 5}, {I: 2, J: 1}, {I: 0, J: 2}}
	sim.SortPairs(ps)
	want := []sim.Pair{{I: 0, J: 2}, {I: 0, J: 5}, {I: 2, J: 1}, {I: 2, J: 3}}
	for i := range want {
		if ps[i] != want[i] {
			t.Fatalf("sorted = %v", ps)
		}
	}
}

func TestSizeOrder(t *testing.T) {
	lt := tree.NewLabelTable()
	ts := []*tree.Tree{
		tree.MustParseBracket("{a{b}{c}}", lt),    // 3
		tree.MustParseBracket("{a}", lt),          // 1
		tree.MustParseBracket("{a{b}}", lt),       // 2
		tree.MustParseBracket("{a{b{c}{d}}}", lt), // 4
		tree.MustParseBracket("{z{y}}", lt),       // 2 (tie with index 2)
	}
	order := sim.SizeOrder(ts)
	sizes := make([]int, len(order))
	for i, idx := range order {
		sizes[i] = ts[idx].Size()
	}
	if !sort.IntsAreSorted(sizes) {
		t.Fatalf("sizes not ascending: %v", sizes)
	}
	// Stability: equal sizes keep index order.
	pos2, pos4 := -1, -1
	for i, idx := range order {
		if idx == 2 {
			pos2 = i
		}
		if idx == 4 {
			pos4 = i
		}
	}
	if pos2 > pos4 {
		t.Fatal("size order not stable for ties")
	}
}

// TestSizeOrderManyTies: over collections whose trees take only a few sizes,
// SizeOrder equals a reference stable sort (a bucket per size, filled in index
// order), and SortPairs equals the reference order of pairs with repeated I.
func TestSizeOrderManyTies(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	lt := tree.NewLabelTable()
	for _, n := range []int{0, 1, 2, 17, 300, 2000} {
		sizes := 1 + rng.Intn(6)
		ts := make([]*tree.Tree, n)
		buckets := make([][]int, sizes+1)
		for i := range ts {
			b := tree.NewBuilder(lt)
			b.Root("r")
			size := 1 + rng.Intn(sizes)
			for j := 1; j < size; j++ {
				b.Child(0, "c")
			}
			ts[i] = b.MustBuild()
			buckets[size] = append(buckets[size], i)
		}
		if got, want := sim.SizeOrder(ts), slices.Concat(buckets...); !slices.Equal(got, want) {
			t.Fatalf("n=%d, %d sizes: SizeOrder = %v, want %v", n, sizes, got, want)
		}

		ps := make([]sim.Pair, n)
		for i := range ps {
			ps[i] = sim.Pair{I: rng.Intn(sizes), J: rng.Intn(n), Dist: i}
		}
		want := slices.Clone(ps)
		sort.SliceStable(want, func(a, b int) bool {
			return want[a].I < want[b].I || want[a].I == want[b].I && want[a].J < want[b].J
		})
		sim.SortPairs(ps)
		for i := range ps {
			if ps[i].I != want[i].I || ps[i].J != want[i].J {
				t.Fatalf("n=%d: SortPairs position %d is %v, want %v", n, i, ps[i], want[i])
			}
		}
	}
}

func TestVerifyAllSequentialVsParallel(t *testing.T) {
	lt := tree.NewLabelTable()
	rng := rand.New(rand.NewSource(77))
	var ts []*tree.Tree
	for i := 0; i < 20; i++ {
		b := tree.NewBuilder(lt)
		b.Root("r")
		n := 1 + rng.Intn(12)
		for j := 1; j < n; j++ {
			b.Child(int32(rng.Intn(j)), string(rune('a'+rng.Intn(3))))
		}
		ts = append(ts, b.MustBuild())
	}
	var cands []sim.Candidate
	for i := 0; i < len(ts); i++ {
		for j := i + 1; j < len(ts); j++ {
			cands = append(cands, sim.Candidate{I: i, J: j})
		}
	}
	for _, tau := range []int{0, 2, 5} {
		var s1, s2 sim.Stats
		seq := sim.VerifyAll(ts, cands, tau, nil, 1, &s1)
		par := sim.VerifyAll(ts, cands, tau, nil, 8, &s2)
		sim.SortPairs(seq)
		sim.SortPairs(par)
		if len(seq) != len(par) {
			t.Fatalf("τ=%d: %d vs %d results", tau, len(seq), len(par))
		}
		for i := range seq {
			if seq[i] != par[i] {
				t.Fatalf("τ=%d: pair %d differs: %v vs %v", tau, i, seq[i], par[i])
			}
		}
		if s1.Candidates != int64(len(cands)) || s2.Candidates != int64(len(cands)) {
			t.Fatalf("candidate accounting wrong")
		}
	}
}

func TestVerifyAllNormalisesPairOrder(t *testing.T) {
	lt := tree.NewLabelTable()
	ts := []*tree.Tree{
		tree.MustParseBracket("{a}", lt),
		tree.MustParseBracket("{a}", lt),
	}
	var st sim.Stats
	out := sim.VerifyAll(ts, []sim.Candidate{{I: 1, J: 0}}, 0, nil, 1, &st)
	if len(out) != 1 || out[0].I != 0 || out[0].J != 1 {
		t.Fatalf("pair not normalised: %v", out)
	}
}

func TestVerifyAllCustomVerifier(t *testing.T) {
	lt := tree.NewLabelTable()
	ts := []*tree.Tree{
		tree.MustParseBracket("{a}", lt),
		tree.MustParseBracket("{b}", lt),
	}
	called := 0
	v := func(a, b *tree.Tree, tau int) (int, bool) {
		called++
		return 0, true // everything matches
	}
	var st sim.Stats
	out := sim.VerifyAll(ts, []sim.Candidate{{I: 0, J: 1}}, 0, v, 1, &st)
	if called != 1 || len(out) != 1 {
		t.Fatalf("custom verifier not used (called=%d, out=%v)", called, out)
	}
}

func TestStatsTotal(t *testing.T) {
	s := sim.Stats{CandTime: 2, VerifyTime: 3, PartitionTime: 5}
	if s.Total() != 10 {
		t.Fatalf("Total = %d", s.Total())
	}
}

// TestAddCountersIsExhaustive: every numeric Stats field but Trees sums.
func TestAddCountersIsExhaustive(t *testing.T) {
	var one, total sim.Stats
	for v, i := reflect.ValueOf(&one).Elem(), 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.CanInt() {
			f.SetInt(1)
		}
	}
	sim.AddCounters(&total, &one)
	sim.AddCounters(&total, &one)
	for v, i := reflect.ValueOf(total), 0; i < v.NumField(); i++ {
		if f, name := v.Field(i), v.Type().Field(i).Name; f.CanInt() && f.Int() != 2 && name != "Trees" {
			t.Errorf("Stats.%s = %d after adding 1 twice", name, f.Int())
		}
	}
}

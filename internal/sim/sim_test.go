package sim_test

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

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

// TestAddCountersFoldsEveryCounter: every int64 and time.Duration field of
// Stats is summed by AddCounters, so a new counter cannot be left out of the
// fold unnoticed. Trees, an int, is exempt: it is a property of the whole,
// not a sum.
func TestAddCountersFoldsEveryCounter(t *testing.T) {
	var one, total sim.Stats
	v := reflect.ValueOf(&one).Elem()
	durType := reflect.TypeOf(time.Duration(0))
	var counters []string
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		if f.Type == durType || f.Type.Kind() == reflect.Int64 {
			v.Field(i).SetInt(1)
			counters = append(counters, f.Name)
		}
	}
	if len(counters) == 0 {
		t.Fatal("Stats has no int64 or time.Duration field")
	}
	sim.AddCounters(&total, &one)
	got := reflect.ValueOf(total)
	for _, name := range counters {
		if n := got.FieldByName(name).Int(); n != 1 {
			t.Errorf("AddCounters leaves %s at %d, want 1", name, n)
		}
	}
}

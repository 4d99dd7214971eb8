package treejoin

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"treejoin/internal/sim"
	"treejoin/internal/synth"
)

// indexBuilds counts, on the current state, the subgraph indexes its parts
// have built, the whole-membership indexes composed from them, and the token
// indexes built.
func indexBuilds(cp *Corpus) (parts, composed, tokens int64) {
	st := cp.state.Load()
	for _, p := range st.parts {
		_, n, _ := p.subgraph.Counts()
		parts += n
	}
	_, composed, _ = st.subgraph.Counts()
	_, tokens, _ = st.tokens.Counts()
	return parts, composed, tokens
}

// TestIndexBuiltOncePerEpoch: a 4-part SelfJoin builds four part indexes and
// composes them once; a repeat join, a Snapshot's join and Searches at the
// same threshold find them all; a mutation rebuilds only the part it touched,
// and the next join composes once more.
func TestIndexBuiltOncePerEpoch(t *testing.T) {
	ctx := context.Background()
	pool := synth.Generate(synth.SyntheticParams(121, 3, 5, 20, 30, 67))
	ts := pool[:120]
	sc, err := NewSharded(4, ts)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := mustNewCorpus(t, ts).SelfJoin(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	builds := func(c *Corpus, wantParts, wantComposed int64) {
		t.Helper()
		if p, n, _ := indexBuilds(c); p != wantParts || n != wantComposed {
			t.Fatalf("%d part indexes built and %d composed, want %d and %d", p, n, wantParts, wantComposed)
		}
	}
	for run, target := range []*Corpus{sc, sc, sc.Snapshot()} {
		got, st, err := target.SelfJoin(ctx, 2, WithWorkers(4))
		if err != nil || !slices.Equal(got, want) {
			t.Fatalf("run %d: the 4-part join differs from the corpus join (err %v)", run, err)
		}
		builds(sc, 4, 1)
		if (st.IndexBuildTime > 0) != (run == 0) {
			t.Fatalf("run %d: IndexBuildTime %v", run, st.IndexBuildTime)
		}
	}
	for _, target := range []*Corpus{sc, sc.Snapshot()} {
		if _, err := target.Search(ctx, ts[0], 2); err != nil {
			t.Fatal(err)
		}
	}
	builds(sc, 4, 1)
	one := mustNewCorpus(t, ts)
	for _, target := range []*Corpus{one, one.Snapshot()} {
		if _, err := target.Search(ctx, ts[0], 3); err != nil {
			t.Fatal(err)
		}
	}
	builds(one, 1, 0)
	if _, err := sc.Add(pool[120]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sc.SelfJoin(ctx, 2, WithWorkers(4)); err != nil {
		t.Fatal(err)
	}
	builds(sc, 3+1, 1) // three parts carried over, indexes and all; the touched one is new
}

// TestTokenIndexBuiltOncePerEpoch: the signature methods' self joins share one
// frozen token index per epoch, tokenizer, threshold and prefix multiplier. A
// repeat join finds it (IndexBuildTime 0, identical pairs), so does a method
// that tokenises alike (STR and EUL; SET tokenises labels and builds its own);
// one mutation costs one rebuild per index, paid by the first join after it;
// and a view pinned to the old epoch — a Snapshot, or a sequence made before
// the mutation — keeps that epoch's index and installs nothing on the new one.
func TestTokenIndexBuiltOncePerEpoch(t *testing.T) {
	ctx := context.Background()
	pool := synth.Generate(synth.SyntheticParams(81, 3, 5, 20, 30, 67))
	cp := mustNewCorpus(t, pool[:80])
	builds := func(c *Corpus) int64 {
		_, _, n := indexBuilds(c)
		return n
	}
	join := func(c *Corpus, m Method, wantBuilt bool) []Pair {
		t.Helper()
		pairs, st, err := c.SelfJoin(ctx, 2, WithMethod(m), WithFixedPlan(), WithWorkers(2))
		if err != nil || !strings.HasPrefix(st.Source, "token-index(") {
			t.Fatalf("%v: source %q, err %v", m, st.Source, err)
		}
		if (st.IndexBuildTime > 0) != wantBuilt {
			t.Fatalf("%v: IndexBuildTime %v, want built = %v", m, st.IndexBuildTime, wantBuilt)
		}
		return pairs
	}
	first := join(cp, MethodSTR, true)
	if !slices.Equal(join(cp, MethodSTR, false), first) {
		t.Fatal("the repeat join over the cached index differs from the first")
	}
	join(cp, MethodEulerString, false)
	join(cp, MethodSET, true)
	if n := builds(cp); n != 2 {
		t.Fatalf("STR, STR, EUL, SET at one τ built %d indexes, want 2", n)
	}

	snap := cp.Snapshot()
	stale, err := cp.SelfJoinSeq(ctx, 2, WithMethod(MethodSTR), WithFixedPlan())
	if err != nil {
		t.Fatal(err)
	}
	ids, err := cp.Add(pool[80])
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(join(snap, MethodSTR, false), first) || builds(snap) != 2 {
		t.Fatal("the snapshot's join differs from the join at its epoch, or rebuilt its index")
	}
	var got []Pair
	for p := range stale {
		got = append(got, p)
	}
	sim.SortPairs(got)
	if !slices.Equal(got, first) {
		t.Fatal("the sequence pinned before the Add differs from the join at its epoch")
	}
	if n := builds(cp); n != 0 {
		t.Fatalf("views of the old epoch installed %d indexes on the live corpus", n)
	}
	join(cp, MethodSTR, true)
	join(cp, MethodSTR, false)
	if cp.Remove(ids...) != 1 {
		t.Fatal("Remove")
	}
	if !slices.Equal(join(cp, MethodSTR, true), first) || !slices.Equal(join(cp, MethodEulerString, false), first) {
		t.Fatal("joins after Add+Remove of one tree differ from the first")
	}
	if n := builds(cp); n != 1 {
		t.Fatalf("the epoch after the Remove built %d indexes, want 1", n)
	}
}

func mustNewCorpus(t *testing.T, ts []*Tree) *Corpus {
	t.Helper()
	cp, err := NewCorpus(ts)
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// bruteJoin, bruteSearch and bruteKNN are the oracles of the race test.
func bruteJoin(ts []*Tree, tau int) []Pair {
	var out []Pair
	for i := range ts {
		for j := i + 1; j < len(ts); j++ {
			if d := Distance(ts[i], ts[j]); d <= tau {
				out = append(out, Pair{I: i, J: j, Dist: d})
			}
		}
	}
	return out
}

func bruteSearch(ts []*Tree, q *Tree, tau int) []Match {
	var out []Match
	for i, t := range ts {
		if d := Distance(t, q); d <= tau {
			out = append(out, Match{Pos: i, Dist: d})
		}
	}
	return out
}

func bruteKNN(ts []*Tree, q *Tree, k int) []Match {
	out := bruteSearch(ts, q, 1<<30)
	sort.SliceStable(out, func(a, b int) bool { return out[a].Dist < out[b].Dist })
	return out[:min(k, len(out))]
}

// checkAgainstBruteForce runs SelfJoin, Search and KNN on target at once —
// they race for the same per-threshold indexes — and holds each answer to
// brute force over ts, the membership target is known to have.
func checkAgainstBruteForce(target *Corpus, ts []*Tree, q *Tree, report func(string, ...any)) {
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(3)
		go func() {
			defer wg.Done()
			if got, _, err := target.SelfJoin(ctx, 2, WithWorkers(2)); err != nil || !slices.Equal(got, bruteJoin(ts, 2)) {
				report("SelfJoin over %d trees: %v, err %v", len(ts), got, err)
			}
		}()
		go func() {
			defer wg.Done()
			if got, err := target.Search(ctx, q, 2); err != nil || !slices.Equal(got, bruteSearch(ts, q, 2)) {
				report("Search over %d trees: %v, err %v", len(ts), got, err)
			}
		}()
		go func() {
			defer wg.Done()
			if got, err := target.KNN(ctx, q, 3); err != nil || !slices.Equal(got, bruteKNN(ts, q, 3)) {
				report("KNN over %d trees: %v, want %v, err %v", len(ts), got, bruteKNN(ts, q, 3), err)
			}
		}()
	}
	wg.Wait()
}

// TestSharedIndexRace (run under -race): joins, searches and KNN queries race
// for the parts' shared indexes of a one-part and a three-part corpus while
// Add and Remove replace the parts. Two regimes: between mutations, queries on
// the live objects must answer for the membership just published — the first
// query after a mutation never sees the previous epoch's index — and while a
// writer churns freely, queries on pinned views must answer for exactly the
// view's membership.
func TestSharedIndexRace(t *testing.T) {
	pool := synth.Generate(synth.SyntheticParams(90, 3, 5, 20, 24, 71))
	cp := mustNewCorpus(t, pool[:40])
	sc, err := NewSharded(3, pool[:40])
	if err != nil {
		t.Fatal(err)
	}
	var failed sync.Once
	var failure string
	report := func(format string, args ...any) {
		failed.Do(func() { failure = fmt.Sprintf(format, args...) })
	}

	// Regime 1: mutate, then query the live objects against the model.
	rng := rand.New(rand.NewSource(3))
	model, ids, next := slices.Clone(pool[:40]), make([]int, 40), 40
	for i := range ids {
		ids[i] = i
	}
	for step := 0; step < 8 && failure == ""; step++ {
		if step%2 == 0 {
			a, err1 := cp.Add(pool[next])
			b, err2 := sc.Add(pool[next])
			if err1 != nil || err2 != nil || a[0] != b[0] {
				t.Fatalf("Add: ids %v/%v, errors %v/%v", a, b, err1, err2)
			}
			model, ids, next = append(model, pool[next]), append(ids, a[0]), next+1
		} else {
			at := rng.Intn(len(model))
			if cp.Remove(ids[at]) != 1 || sc.Remove(ids[at]) != 1 {
				t.Fatalf("Remove(%d) did not remove one tree from each", ids[at])
			}
			model, ids = slices.Delete(model, at, at+1), slices.Delete(ids, at, at+1)
		}
		q := pool[rng.Intn(len(pool))]
		checkAgainstBruteForce(cp, model, q, report)
		checkAgainstBruteForce(sc, model, q, report)
	}

	// Regime 2: a free-running writer against readers on pinned views.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		wrng := rand.New(rand.NewSource(4))
		for i := 0; i < 40; i++ {
			if i%2 == 0 {
				cp.Add(pool[(next+i)%len(pool)])
				sc.Add(pool[(next+i)%len(pool)])
			} else {
				cp.Remove(wrng.Intn(next + i))
				sc.Remove(wrng.Intn(next + i))
			}
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rrng := rand.New(rand.NewSource(int64(5 + r)))
			for i := 0; i < 6; i++ {
				q := pool[rrng.Intn(len(pool))]
				snap := cp.Snapshot()
				checkAgainstBruteForce(snap, snap.Trees(), q, report)
				view := sc.Snapshot()
				checkAgainstBruteForce(view, view.Trees(), q, report)
			}
		}()
	}
	wg.Wait()
	if failure != "" {
		t.Fatal(failure)
	}
}

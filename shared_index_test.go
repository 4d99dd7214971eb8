package treejoin

import (
	"context"
	"slices"
	"strings"
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
	one, err := NewCorpus(ts)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := one.SelfJoin(ctx, 2)
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
	if one, err = NewCorpus(ts); err != nil {
		t.Fatal(err)
	}
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
// frozen token index per epoch, tokenizer and threshold. A repeat join finds
// it (IndexBuildTime 0, identical pairs), so does a method that tokenises
// alike (STR and EUL; SET tokenises labels and builds its own); one mutation
// costs one rebuild per index, paid by the first join after it; and a view
// pinned to the old epoch — a Snapshot, or a sequence made before the
// mutation — keeps that epoch's index and installs nothing on the new one.
func TestTokenIndexBuiltOncePerEpoch(t *testing.T) {
	ctx := context.Background()
	pool := synth.Generate(synth.SyntheticParams(81, 3, 5, 20, 30, 67))
	cp, err := NewCorpus(pool[:80])
	if err != nil {
		t.Fatal(err)
	}
	builds := func(c *Corpus) int64 {
		_, _, n := indexBuilds(c)
		return n
	}
	join := func(c *Corpus, m Method, wantBuilt bool) []Pair {
		t.Helper()
		pairs, st, err := c.SelfJoin(ctx, 2, WithMethod(m), WithWorkers(2))
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
	stale, err := cp.SelfJoinSeq(ctx, 2, WithMethod(MethodSTR))
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

// lruCounts is what the state's index LRUs hold and have built: the parts'
// and the composed subgraph indexes, the token indexes and the rankings.
func lruCounts(cp *Corpus) [8]int64 {
	st := cp.state.Load()
	var out [8]int64
	for _, p := range st.parts {
		n, b, _ := p.subgraph.Counts()
		out[0], out[1] = out[0]+int64(n), out[1]+b
	}
	n, b, _ := st.subgraph.Counts()
	out[2], out[3] = int64(n), b
	n, b, _ = st.tokens.Counts()
	out[4], out[5] = int64(n), b
	n, b, _ = st.ranks.Counts()
	out[6], out[7] = int64(n), b
	return out
}

// TestWarmCrossJoinBuildsNothing: a cross join probes its receiver's
// per-epoch index with the partner's trees. The first Join builds it; a
// second against a fresh partner corpus reports IndexBuildTime 0 and leaves
// the receiver's index LRUs as they were, and neither partner's LRUs hold
// anything — PQG and HIST on the token index, PartSJ on the subgraph index,
// the receiver on one part and on four.
func TestWarmCrossJoinBuildsNothing(t *testing.T) {
	ctx := context.Background()
	pool := synth.Generate(synth.SyntheticParams(160, 3, 5, 20, 30, 67))
	for _, parts := range []int{1, 4} {
		for _, m := range []Method{MethodPQGram, MethodHistogram, MethodPartSJ} {
			recv, err := NewSharded(parts, pool[:100])
			if err != nil {
				t.Fatal(err)
			}
			var before [8]int64
			for run, partner := range [][]*Tree{pool[100:130], pool[130:]} {
				other, err := NewCorpus(partner)
				if err != nil {
					t.Fatal(err)
				}
				want, err := NewCorpus(slices.Concat(pool[:100], partner))
				if err != nil {
					t.Fatal(err)
				}
				pairs, st, err := recv.Join(ctx, other, 2, WithMethod(m))
				if err != nil {
					t.Fatal(err)
				}
				all, _, err := want.SelfJoin(ctx, 2, WithMethod(m))
				if err != nil {
					t.Fatal(err)
				}
				var cross []Pair
				for _, p := range all {
					if p.I < 100 && p.J >= 100 {
						cross = append(cross, Pair{I: p.I, J: p.J - 100, Dist: p.Dist})
					}
				}
				if !slices.Equal(pairs, cross) {
					t.Fatalf("%v on %d parts, run %d: %d cross pairs, the self join of both %d", m, parts, run, len(pairs), len(cross))
				}
				if m != MethodPartSJ && !strings.HasPrefix(st.Source, "token-index(") {
					t.Fatalf("%v: source %q, want the token index", m, st.Source)
				}
				if (st.IndexBuildTime > 0) != (run == 0) {
					t.Fatalf("%v on %d parts, run %d: IndexBuildTime %v", m, parts, run, st.IndexBuildTime)
				}
				if run == 1 && lruCounts(recv) != before {
					t.Fatalf("%v on %d parts: the warm join changed the receiver's index LRUs from %v to %v", m, parts, before, lruCounts(recv))
				}
				if lruCounts(other) != ([8]int64{}) {
					t.Fatalf("%v: the partner's index LRUs hold %v", m, lruCounts(other))
				}
				before = lruCounts(recv)
			}
		}
	}
}

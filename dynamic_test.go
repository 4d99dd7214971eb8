// Tests for the dynamic Corpus: Add/Remove semantics (stable ids, dense
// positions, epochs), snapshot isolation of views and in-flight sequences,
// the maintained token index, and the incremental stream's standing result
// view with retraction deltas.
package treejoin_test

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"

	"treejoin"
	"treejoin/internal/sim"
	"treejoin/internal/synth"
)

func TestCorpusAddRemove(t *testing.T) {
	ctx := context.Background()
	lt := treejoin.NewLabelTable()
	parse := func(s string) *treejoin.Tree { return treejoin.MustParseBracket(s, lt) }
	ts := []*treejoin.Tree{
		parse("{a{b}{c}}"), parse("{a{b}{d}}"), parse("{x{y}}"),
		parse("{x{z}}"), parse("{a{b}{c{d}}}"),
	}
	cp := mustCorpus(t, ts)
	if cp.Epoch() != 0 {
		t.Fatalf("fresh corpus epoch = %d, want 0", cp.Epoch())
	}

	ids, err := cp.Add(parse("{a{b}}"), parse("{q}"))
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	if len(ids) != 2 || ids[0] != 5 || ids[1] != 6 {
		t.Fatalf("Add ids = %v, want [5 6]", ids)
	}
	if cp.Len() != 7 || cp.Epoch() != 1 {
		t.Fatalf("after Add: len=%d epoch=%d, want 7, 1", cp.Len(), cp.Epoch())
	}

	if n := cp.Remove(2, 5, 99, 5); n != 2 {
		t.Fatalf("Remove removed %d, want 2 (one unknown, one duplicate)", n)
	}
	if cp.Len() != 5 || cp.Epoch() != 2 {
		t.Fatalf("after Remove: len=%d epoch=%d, want 5, 2", cp.Len(), cp.Epoch())
	}
	// Positions are dense over the survivors, in insertion order; ids are
	// stable.
	wantIDs := []int{0, 1, 3, 4, 6}
	for p, id := range wantIDs {
		if got := cp.ID(p); got != id {
			t.Fatalf("ID(%d) = %d, want %d", p, got, id)
		}
		if pos, ok := cp.PosOf(id); !ok || pos != p {
			t.Fatalf("PosOf(%d) = %d, %v, want %d, true", id, pos, ok, p)
		}
	}
	if _, ok := cp.PosOf(2); ok {
		t.Fatal("PosOf of a removed id reported true")
	}

	// A mutated corpus joins as the model of its survivors says.
	checkCorpus(t, cp)

	// Validation: nil trees and foreign label tables are rejected atomically
	// (the corpus is unchanged).
	if _, err := cp.Add(parse("{ok}"), nil); !errors.Is(err, treejoin.ErrNilTree) {
		t.Fatalf("Add nil: err = %v, want ErrNilTree", err)
	}
	foreign := treejoin.MustParseBracket("{a}", treejoin.NewLabelTable())
	if _, err := cp.Add(foreign); !errors.Is(err, treejoin.ErrLabelTable) {
		t.Fatalf("Add foreign table: err = %v, want ErrLabelTable", err)
	}
	if cp.Len() != 5 || cp.Epoch() != 2 {
		t.Fatalf("failed Add mutated the corpus: len=%d epoch=%d", cp.Len(), cp.Epoch())
	}

	// An emptied corpus still answers, and an empty corpus adopts the first
	// added tree's table.
	cp.Remove(wantIDs...)
	if cp.Len() != 0 {
		t.Fatalf("emptied corpus len = %d", cp.Len())
	}
	if pairs, _, err := cp.SelfJoin(ctx, 1); err != nil || len(pairs) != 0 {
		t.Fatalf("empty corpus join: pairs=%v err=%v", pairs, err)
	}
	empty, err := treejoin.NewCorpus(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := empty.Add(foreign); err != nil {
		t.Fatalf("empty corpus Add: %v", err)
	}
	if _, err := empty.Add(parse("{a}")); !errors.Is(err, treejoin.ErrLabelTable) {
		t.Fatalf("adopted table not enforced: err = %v", err)
	}
}

func TestCorpusSnapshotIsolation(t *testing.T) {
	ctx := context.Background()
	ts := synth.Synthetic(30, 5)
	cp := mustCorpus(t, ts)
	want, _, err := cp.SelfJoin(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}

	view := cp.Snapshot()
	if _, err := cp.Add(ts[0]); err != nil { // aliasing the same tree is allowed
		t.Fatalf("Add: %v", err)
	}
	cp.Remove(3, 4)

	if view.Len() != 30 {
		t.Fatalf("snapshot len = %d, want 30 (parent mutated to %d)", view.Len(), cp.Len())
	}
	got, _, err := view.SelfJoin(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("snapshot join: %v, the pre-mutation corpus's %v", got, want)
	}
	if _, err := view.Add(ts[0]); !errors.Is(err, treejoin.ErrImmutableSnapshot) {
		t.Fatalf("snapshot Add: err = %v, want ErrImmutableSnapshot", err)
	}
	if n := view.Remove(0); n != 0 {
		t.Fatalf("snapshot Remove removed %d", n)
	}

	// The parent reflects its mutations.
	if cp.Len() != 29 {
		t.Fatalf("parent len = %d, want 29", cp.Len())
	}
}

// TestCorpusSeqPinnedToEpoch: a sequence obtained before a mutation runs
// against the membership it was created over, even when iterated only after
// the mutation landed.
func TestCorpusSeqPinnedToEpoch(t *testing.T) {
	ctx := context.Background()
	ts := synth.Synthetic(30, 8)
	cp := mustCorpus(t, ts)
	want, _, err := cp.SelfJoin(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}

	seq, err := cp.SelfJoinSeq(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	cp.Remove(0, 1, 2, 3, 4, 5)

	var got []treejoin.Pair
	for p := range seq {
		got = append(got, p)
	}
	sim.SortPairs(got)
	if !slices.Equal(got, want) {
		t.Fatalf("pinned seq: %v, the pre-mutation join's %v", got, want)
	}
}

// TestCorpusDynamicTokenIndex: a corpus that has mutated probes the same
// token-index source as a static one — a frozen index rebuilt once for the
// new epoch — and keeps results identical to a fresh corpus.
func TestCorpusDynamicTokenIndex(t *testing.T) {
	ctx := context.Background()
	ts := synth.Synthetic(60, 17)
	cp := mustCorpus(t, ts)

	var st treejoin.Stats
	if _, _, err := cp.SelfJoin(ctx, 2, treejoin.WithMethod(treejoin.MethodSTR), treejoin.WithStats(&st)); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(st.Source, "token-index(") || st.IndexBuildTime <= 0 {
		t.Fatalf("static corpus: source = %q, index built in %v", st.Source, st.IndexBuildTime)
	}

	cp.Remove(0, 13)
	if _, err := cp.Add(ts[0]); err != nil {
		t.Fatal(err)
	}

	for _, m := range []treejoin.Method{treejoin.MethodSTR, treejoin.MethodSET, treejoin.MethodPQGram} {
		if _, gst, err := cp.SelfJoin(ctx, 2, treejoin.WithMethod(m)); err != nil || !strings.HasPrefix(gst.Source, "token-index(") {
			t.Fatalf("%v: mutated corpus source = %q, want token-index (err %v)", m, gst.Source, err)
		}
	}
	checkCorpus(t, cp)

	// A second join at a new threshold builds that threshold's index from the
	// cached bags: it recomputes no per-tree signature (the warm-corpus
	// contract extends to dynamic corpora).
	base := cp.CacheStats()
	if _, _, err := cp.SelfJoin(ctx, 3, treejoin.WithMethod(treejoin.MethodSTR)); err != nil {
		t.Fatal(err)
	}
	if now := cp.CacheStats(); now.Misses != base.Misses {
		t.Fatalf("warm dynamic join recomputed %d signatures", now.Misses-base.Misses)
	}

}

// TestCorpusEvictionNotUndone: a snapshot re-running queries after the
// parent removed trees must not repopulate the shared cache with the dead
// trees' artifacts — they land in the view's overflow, so Remove's eviction
// holds and shared-cache memory tracks the live collection.
func TestCorpusEvictionNotUndone(t *testing.T) {
	ctx := context.Background()
	ts := synth.Synthetic(30, 43)
	cp := mustCorpus(t, ts)
	want, _, err := cp.SelfJoin(ctx, 1) // warm every live artifact
	if err != nil {
		t.Fatal(err)
	}

	view := cp.Snapshot()
	cp.Remove(0, 1, 2)
	evicted := cp.CacheStats().Entries

	got, _, err := view.SelfJoin(ctx, 1) // recomputes the dead trees' artifacts
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("snapshot join after parent Remove: %d pairs, want %d", len(got), len(want))
	}
	if after := cp.CacheStats().Entries; after != evicted {
		t.Fatalf("snapshot query undid eviction: shared cache grew %d -> %d entries", evicted, after)
	}
}

// TestIncrementalRetraction: the standing result view tracks Add/Remove
// exactly — Pairs is always the self-join of the live trees, Retracted
// drains precisely the withdrawn pairs, and a mirror applying both deltas
// matches Pairs.
func TestIncrementalRetraction(t *testing.T) {
	lt := treejoin.NewLabelTable()
	parse := func(s string) *treejoin.Tree { return treejoin.MustParseBracket(s, lt) }
	inc, _ := mustCorpus(t, nil).Incremental(1)

	mirror := map[[2]int]int{}
	apply := func(added []treejoin.Pair) {
		for _, p := range added {
			mirror[[2]int{p.I, p.J}] = p.Dist
		}
		for _, p := range inc.Retracted() {
			delete(mirror, [2]int{p.I, p.J})
		}
		standing := inc.Pairs()
		if len(standing) != len(mirror) {
			t.Fatalf("mirror has %d pairs, standing view %d", len(mirror), len(standing))
		}
		for _, p := range standing {
			if d, ok := mirror[[2]int{p.I, p.J}]; !ok || d != p.Dist {
				t.Fatalf("standing pair %+v missing from mirror (dist %d)", p, d)
			}
		}
	}

	apply(inc.Add(parse("{a{b}{c}}")))    // 0
	apply(inc.Add(parse("{a{b}{d}}")))    // 1: pairs with 0
	apply(inc.Add(parse("{a{b}{c}{d}}"))) // 2: pairs with 0 and 1
	apply(inc.Add(parse("{z}")))          // 3: no partners
	if got := len(inc.Pairs()); got != 3 {
		t.Fatalf("standing pairs = %d, want 3", got)
	}

	if !inc.Remove(0) {
		t.Fatal("Remove(0) failed")
	}
	retracted := inc.Retracted()
	if len(retracted) != 2 {
		t.Fatalf("retracted %d pairs, want 2 (both involving tree 0): %v", len(retracted), retracted)
	}
	for _, p := range retracted {
		if p.I != 0 {
			t.Fatalf("retracted pair %+v does not involve tree 0", p)
		}
		delete(mirror, [2]int{p.I, p.J})
	}
	if got := inc.Pairs(); len(got) != 1 || got[0].I != 1 || got[0].J != 2 {
		t.Fatalf("standing pairs after retraction = %v, want [{1 2 ...}]", got)
	}
	if st := inc.Stats(); st.PairsRetracted != 2 {
		t.Fatalf("Stats.PairsRetracted = %d, want 2", st.PairsRetracted)
	}

	// Update = Remove + Add: the replacement's pairs enter the standing
	// view, the replaced tree's pairs leave it.
	_, pairs := inc.Update(1, parse("{a{b}{c}}"))
	apply(pairs)
}

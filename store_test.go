package treejoin_test

import (
	"context"
	"math/rand"
	"path/filepath"
	"testing"

	"treejoin"
	"treejoin/internal/synth"
)

// reintern rebuilds ts against lt (tree collections only join when they share
// one label table; a persistent corpus owns its table, so test trees from
// other generators are re-interned into it).
func reintern(ts []*treejoin.Tree, lt *treejoin.LabelTable) []*treejoin.Tree {
	out := make([]*treejoin.Tree, len(ts))
	for i, t := range ts {
		out[i] = treejoin.MustParseBracket(treejoin.FormatBracket(t), lt)
	}
	return out
}

func TestStoreLifecycle(t *testing.T) {
	ctx := context.Background()
	dir := filepath.Join(t.TempDir(), "store")
	cp, err := treejoin.Open(dir, treejoin.WithStoreNoSync())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cp.StoreStats(); !ok {
		t.Fatal("persistent corpus reports no store stats")
	}
	pool := reintern(synth.Synthetic(30, 7), cp.Labels())
	ids, err := cp.Add(pool...)
	if err != nil {
		t.Fatal(err)
	}
	cp.Remove(ids[3], ids[17])
	want, _, err := cp.SelfJoin(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := cp.Add(pool[0]); err == nil {
		t.Fatal("Add after Close succeeded")
	}

	re, err := treejoin.Open(dir, treejoin.WithStoreNoSync())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != len(pool)-2 {
		t.Fatalf("reopened corpus has %d trees, want %d", re.Len(), len(pool)-2)
	}
	// Stable ids survive the round trip: the removed ids stay gone, the rest
	// resolve to trees equal to what was stored.
	if _, ok := re.PosOf(ids[3]); ok {
		t.Fatal("removed id resurrected by reopen")
	}
	p, ok := re.PosOf(ids[5])
	if !ok {
		t.Fatalf("id %d lost by reopen", ids[5])
	}
	if treejoin.FormatBracket(re.Tree(p)) != treejoin.FormatBracket(pool[5]) {
		t.Fatalf("id %d maps to a different tree after reopen", ids[5])
	}
	got, _, err := re.SelfJoin(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("reopened SelfJoin: %d pairs, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("reopened SelfJoin pair %d: %+v != %+v", i, got[i], want[i])
		}
	}
	st, _ := re.StoreStats()
	if st.SegmentsOpened == 0 {
		t.Fatalf("reopen decoded no segments: %+v", st)
	}
	if st.MemtableTrees != 0 {
		t.Fatalf("reopen after clean Close left memtable trees: %+v", st)
	}
}

// TestStoreBeyondMemtableBudget is the out-of-core acceptance check: a corpus
// whose membership exceeds the memtable budget many times over must stage
// through multiple segment flushes and still join identically to a fresh
// in-memory corpus over the same trees.
func TestStoreBeyondMemtableBudget(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	cp, err := treejoin.Open(dir, treejoin.WithMemtableBudget(8), treejoin.WithStoreNoSync())
	if err != nil {
		t.Fatal(err)
	}
	pool := reintern(synth.Synthetic(60, 11), cp.Labels())
	// Add in small batches so flushes interleave with visible state.
	for i := 0; i < len(pool); i += 5 {
		if _, err := cp.Add(pool[i : i+5]...); err != nil {
			t.Fatal(err)
		}
	}
	st, _ := cp.StoreStats()
	if st.Segments < 2 || st.FlushRuns < 2 {
		t.Fatalf("budget 8 with 60 trees did not spill to segments: %+v", st)
	}
	if st.MemtableTrees >= 8 {
		t.Fatalf("memtable exceeds its budget: %+v", st)
	}
	checkSelfOracle(t, "beyond-budget", cp)
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := treejoin.Open(dir, treejoin.WithStoreNoSync())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	checkSelfOracle(t, "beyond-budget reopen", re)
}

func TestStoreCompact(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	cp, err := treejoin.Open(dir, treejoin.WithMemtableBudget(8), treejoin.WithStoreNoSync())
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	pool := reintern(synth.Synthetic(40, 13), cp.Labels())
	ids, err := cp.Add(pool...)
	if err != nil {
		t.Fatal(err)
	}
	cp.Remove(ids[:30]...)
	if err := cp.Compact(); err != nil {
		t.Fatal(err)
	}
	st, _ := cp.StoreStats()
	if st.TombstonedTrees != 0 {
		t.Fatalf("tombstones survived forced compaction: %+v", st)
	}
	if st.CompactionRuns == 0 {
		t.Fatalf("compaction did not run: %+v", st)
	}
	checkSelfOracle(t, "compacted", cp)

	mem, err := treejoin.NewCorpus(pool)
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Compact(); err != treejoin.ErrNotPersistent {
		t.Fatalf("Compact on in-memory corpus: %v", err)
	}
	if _, ok := mem.StoreStats(); ok {
		t.Fatal("in-memory corpus reports store stats")
	}
}

func TestSaveToAndReopen(t *testing.T) {
	ctx := context.Background()
	pool := synth.Synthetic(50, 17)
	cp := mustCorpus(t, pool)
	want, _, err := cp.SelfJoin(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "saved")
	if err := cp.SaveTo(dir); err != nil {
		t.Fatal(err)
	}
	if err := cp.SaveTo(dir); err == nil {
		t.Fatal("SaveTo over an existing store succeeded")
	}

	re, err := treejoin.Open(dir, treejoin.WithStoreNoSync())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != len(pool) {
		t.Fatalf("reopened %d trees, want %d", re.Len(), len(pool))
	}
	// A store holds trees and nothing derived: the reopened corpus starts
	// with an empty artifact cache, and its first join does exactly the work
	// of a corpus that was never stored.
	if st := re.CacheStats(); st != (treejoin.CacheStats{}) {
		t.Fatalf("fresh Open holds artifacts: %+v", st)
	}
	got, gotStats, err := re.SelfJoin(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	fresh := mustCorpus(t, re.Trees())
	_, freshStats, err := fresh.SelfJoin(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	if gotStats.Candidates != freshStats.Candidates {
		t.Fatalf("first join after Open: %d candidates, NewCorpus %d", gotStats.Candidates, freshStats.Candidates)
	}
	if a, b := re.CacheStats().Entries, fresh.CacheStats().Entries; a == 0 || a != b {
		t.Fatalf("first join after Open cached %d artifacts, NewCorpus %d", a, b)
	}
	if len(got) != len(want) {
		t.Fatalf("SelfJoin after SaveTo/Open: %d pairs, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("pair %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

// TestIDsAscendWithPosition pins the invariant PosOf and Remove bisect on: in
// every state of a one-part corpus, a three-part one and a stored and reopened
// one, ids ascend with position — whatever the Add/Remove history — and PosOf
// inverts ID.
func TestIDsAscendWithPosition(t *testing.T) {
	check := func(what string, c *treejoin.Corpus, gone []int) {
		t.Helper()
		for p := 0; p < c.Len(); p++ {
			if p > 0 && c.ID(p) <= c.ID(p-1) {
				t.Fatalf("%s: id %d at position %d follows id %d", what, c.ID(p), p, c.ID(p-1))
			}
			if q, ok := c.PosOf(c.ID(p)); !ok || q != p {
				t.Fatalf("%s: PosOf(ID(%d)) = %d, %v", what, p, q, ok)
			}
		}
		for _, id := range gone {
			if p, ok := c.PosOf(id); ok {
				t.Fatalf("%s: removed id %d still at position %d", what, id, p)
			}
		}
	}
	dir := filepath.Join(t.TempDir(), "store")
	stored, err := treejoin.Open(dir, treejoin.WithMemtableBudget(8), treejoin.WithStoreNoSync())
	if err != nil {
		t.Fatal(err)
	}
	lt := stored.Labels()
	sharded, err := treejoin.NewSharded(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := treejoin.NewCorpus(nil)
	if err != nil {
		t.Fatal(err)
	}
	pool := reintern(synth.Synthetic(150, 19), lt)
	rng := rand.New(rand.NewSource(19))
	var live, gone []int
	for len(pool) > 0 {
		if len(live) > 0 && rng.Intn(3) == 0 {
			var ids []int
			for k := 1 + rng.Intn(4); k > 0 && len(live) > 0; k-- {
				at := rng.Intn(len(live))
				ids = append(ids, live[at])
				live = append(live[:at], live[at+1:]...)
			}
			gone = append(gone, ids...)
			for _, c := range []*treejoin.Corpus{plain, sharded, stored} {
				if n := c.Remove(ids...); n != len(ids) {
					t.Fatalf("Remove(%v) removed %d", ids, n)
				}
			}
		} else {
			k := min(1+rng.Intn(6), len(pool))
			var ids []int
			for _, c := range []*treejoin.Corpus{plain, sharded, stored} {
				if ids, err = c.Add(pool[:k]...); err != nil {
					t.Fatal(err)
				}
			}
			live, pool = append(live, ids...), pool[k:]
		}
		check("one part", plain, gone)
		check("three parts", sharded, gone)
		check("stored", stored, gone)
	}
	if err := stored.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := treejoin.Open(dir, treejoin.WithStoreNoSync())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != len(live) {
		t.Fatalf("reopened store holds %d trees, want %d", re.Len(), len(live))
	}
	check("reopened store", re, gone)
}

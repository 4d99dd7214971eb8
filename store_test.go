package treejoin_test

import (
	"context"
	"os"
	"path/filepath"
	"slices"
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
	checkCorpus(t, cp)
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := treejoin.Open(dir, treejoin.WithStoreNoSync())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	checkCorpus(t, re)
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
	checkCorpus(t, cp)

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

// TestMixedVersionDirectory walks a directory written before segment format
// version 2 through its life under the current code: it opens, takes
// duplicates of its trees into a v2 segment that shares blocks with the v1
// one by content address, scrubs clean with both present, compacts to v2
// only, and reopens to the same ids and join results.
func TestMixedVersionDirectory(t *testing.T) {
	dir := t.TempDir()
	for from, to := range map[string]string{"golden_segment_v1.tjsg": "seg-000001.tjsg", "golden_manifest.tjmf": "MANIFEST"} {
		data, err := os.ReadFile(filepath.Join("internal", "segstore", "testdata", from))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, to), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// segVersions lists the format version byte of every segment file.
	segVersions := func() (vs []byte) {
		names, err := filepath.Glob(filepath.Join(dir, "seg-*.tjsg"))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			data, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			vs = append(vs, data[4])
		}
		return vs
	}
	liveIDs := func(cp *treejoin.Corpus) (ids []int) {
		for p := 0; p < cp.Len(); p++ {
			ids = append(ids, cp.ID(p))
		}
		return ids
	}

	cp, err := treejoin.Open(dir, treejoin.WithMemtableBudget(3), treejoin.WithStoreNoSync())
	if err != nil {
		t.Fatal(err)
	}
	if got := liveIDs(cp); !slices.Equal(got, []int{3, 8, 12}) { // the fixture's id 5 is tombstoned
		t.Fatalf("v1 directory opened to ids %v", got)
	}
	before, _ := cp.StoreStats()
	if _, err := cp.Add(reintern(cp.Trees(), cp.Labels())...); err != nil { // fills the memtable: a flush follows
		t.Fatal(err)
	}
	if rep, err := cp.Scrub(); err != nil || rep.Segments != 2 { // waits for that flush
		t.Fatalf("scrub of the mixed directory: %+v, %v", rep, err)
	}
	if got := segVersions(); !slices.Equal(got, []byte{1, 2}) {
		t.Fatalf("segment versions after the flush: %v, want [1 2]", got)
	}
	if st, _ := cp.StoreStats(); st.Blocks != before.Blocks || st.Entries != before.Entries+3 {
		t.Fatalf("duplicates did not share the v1 segment's blocks: %+v, before %+v", st, before)
	}
	checkCorpus(t, cp)

	if err := cp.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := segVersions(); !slices.Equal(got, []byte{2}) {
		t.Fatalf("segment versions after Compact: %v, want [2]", got)
	}
	if _, err := cp.Scrub(); err != nil {
		t.Fatalf("scrub after Compact: %v", err)
	}
	want := liveIDs(cp)
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := treejoin.Open(dir, treejoin.WithStoreNoSync())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := liveIDs(re); !slices.Equal(got, want) || len(got) != 6 {
		t.Fatalf("reopened ids %v, want %v", got, want)
	}
	checkCorpus(t, re)
}

package segstore

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"treejoin/internal/tree"
)

// testOpts: synchronous compaction, no fsync — the unit tests exercise
// logic, not the disks.
func testOpts() Options {
	return Options{MemtableBudget: 4, CompactMinDead: 3, NoBackground: true, NoSync: true}
}

var testLabels = []string{"a", "b", "c", "d", "e"}

func randTestTree(rng *rand.Rand, lt *tree.LabelTable, maxExtra int) *tree.Tree {
	b := tree.NewBuilder(lt)
	ids := []int32{b.Root(testLabels[rng.Intn(len(testLabels))])}
	for k := rng.Intn(maxExtra + 1); k > 0; k-- {
		p := ids[rng.Intn(len(ids))]
		ids = append(ids, b.Child(p, testLabels[rng.Intn(len(testLabels))]))
	}
	return b.MustBuild()
}

// chainTree builds the deterministic tree a(b(c(...))) of depth n over lt.
func chainTree(lt *tree.LabelTable, n int) *tree.Tree {
	b := tree.NewBuilder(lt)
	id := b.Root(testLabels[0])
	for i := 1; i < n; i++ {
		id = b.Child(id, testLabels[i%len(testLabels)])
	}
	return b.MustBuild()
}

// checkLive asserts the store's live view matches (ids, trees) exactly, in
// order, with ascending ids throughout.
func checkLive(t *testing.T, s *Store, ids []int64, trees []*tree.Tree) {
	t.Helper()
	live := s.Live()
	if len(live) != len(ids) {
		t.Fatalf("%d live trees, want %d", len(live), len(ids))
	}
	prev := int64(-1)
	for i, lv := range live {
		if lv.ID != ids[i] {
			t.Fatalf("live[%d].ID = %d, want %d", i, lv.ID, ids[i])
		}
		if lv.ID <= prev {
			t.Fatalf("live ids not ascending at %d", i)
		}
		prev = lv.ID
		if !tree.Equal(lv.Tree, trees[i]) {
			t.Fatalf("live[%d] tree content differs", i)
		}
	}
}

// TestLifecycleReopen: adds, removes, close, reopen — the live set survives
// bit-identically, pending tombstones included.
func TestLifecycleReopen(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(1))
	s, err := Create(dir, nil, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	var ids []int64
	var trees []*tree.Tree
	for i := 0; i < 13; i++ {
		tr := randTestTree(rng, s.Labels(), 12)
		id := s.NextID()
		if err := s.Add(id, tr); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		trees = append(trees, tr)
	}
	// Remove two: one already flushed (budget 4 → early ids in segments),
	// one still in the memtable.
	for _, drop := range []int{1, len(ids) - 2} {
		if err := s.Remove(ids[drop]); err != nil {
			t.Fatal(err)
		}
		ids = append(ids[:drop], ids[drop+1:]...)
		trees = append(trees[:drop], trees[drop+1:]...)
	}
	checkLive(t, s, ids, trees)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(99, trees[0]); err == nil {
		t.Fatal("Add after Close succeeded")
	}

	s2, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	checkLive(t, s2, ids, trees)
	if st := s2.Stats(); st.MemtableTrees != 0 {
		t.Fatalf("reopened store has %d memtable trees, want 0 (Close flushed)", st.MemtableTrees)
	}
	if s2.NextID() < ids[len(ids)-1]+1 {
		t.Fatalf("next id %d not above max live id", s2.NextID())
	}
}

// TestDedup: identical trees collapse to one block per segment and one
// canonical in-memory block, while every entry stays live.
func TestDedup(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, nil, Options{MemtableBudget: 100, NoBackground: true, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	tr := chainTree(s.Labels(), 6)
	for i := 0; i < 10; i++ {
		// Distinct *tree.Tree instances with identical content.
		cp := chainTree(s.Labels(), 6)
		if i == 0 {
			cp = tr
		}
		if err := s.Add(s.NextID(), cp); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Blocks != 1 || st.Entries != 10 || st.LiveTrees != 10 {
		t.Fatalf("stats = %+v, want 1 block / 10 entries / 10 live", st)
	}
	s.Close()

	s2, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	live := s2.Live()
	if len(live) != 10 {
		t.Fatalf("%d live after reopen, want 10", len(live))
	}
	for _, lv := range live[1:] {
		if lv.Tree != live[0].Tree {
			t.Fatal("duplicate entries do not share the canonical block")
		}
	}
}

// TestMemtableBudget: the budget forces flushes; the live set is unaffected.
func TestMemtableBudget(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(3))
	s, err := Create(dir, nil, testOpts()) // budget 4
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var ids []int64
	var trees []*tree.Tree
	for i := 0; i < 11; i++ {
		tr := randTestTree(rng, s.Labels(), 8)
		id := s.NextID()
		if err := s.Add(id, tr); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		trees = append(trees, tr)
	}
	st := s.Stats()
	if st.FlushRuns < 2 || st.Segments < 2 {
		t.Fatalf("budget 4 after 11 adds: %+v, want ≥2 flushes/segments", st)
	}
	if st.MemtableTrees >= 4 {
		t.Fatalf("memtable holds %d ≥ budget", st.MemtableTrees)
	}
	checkLive(t, s, ids, trees)
}

// TestCompaction: tombstones past the trigger merge everything into one
// segment with no dead entries and no stale files on disk.
func TestCompaction(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(5))
	s, err := Create(dir, nil, testOpts()) // CompactMinDead 3, synchronous
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var ids []int64
	var trees []*tree.Tree
	for i := 0; i < 12; i++ {
		tr := randTestTree(rng, s.Labels(), 8)
		id := s.NextID()
		if err := s.Add(id, tr); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		trees = append(trees, tr)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Remove flushed trees until dead > live forces the merge.
	for len(ids) > 4 {
		if err := s.Remove(ids[0]); err != nil {
			t.Fatal(err)
		}
		ids, trees = ids[1:], trees[1:]
	}
	st := s.Stats()
	if st.CompactionRuns == 0 {
		t.Fatalf("no compaction ran: %+v", st)
	}
	// Straggler tombstones below the trigger merge away under a forced pass.
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if st = s.Stats(); st.Segments != 1 || st.TombstonedTrees != 0 {
		t.Fatalf("post-compaction stats %+v, want 1 clean segment", st)
	}
	checkLive(t, s, ids, trees)
	des, _ := os.ReadDir(dir)
	segFiles := 0
	for _, de := range des {
		if _, ok := segNameSeq(de.Name()); ok {
			segFiles++
		}
	}
	if segFiles != 1 {
		t.Fatalf("%d segment files on disk, want 1", segFiles)
	}
}

// TestAbandonReopen: a store never closed (crash) recovers its memtable from
// the WAL, torn tails and trailing garbage included.
func TestAbandonReopen(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(7))
	s, err := Create(dir, nil, Options{MemtableBudget: 100, NoBackground: true, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	var ids []int64
	var trees []*tree.Tree
	for i := 0; i < 6; i++ {
		tr := randTestTree(rng, s.Labels(), 10)
		id := s.NextID()
		if err := s.Add(id, tr); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		trees = append(trees, tr)
	}
	if err := s.Remove(ids[2]); err != nil {
		t.Fatal(err)
	}
	ids = append(ids[:2], ids[3:]...)
	trees = append(trees[:2], trees[3:]...)
	// Abandon without Close; everything lives only in the WAL.

	walPath := filepath.Join(dir, walName)
	pristine, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkLive(t, s2, ids, trees)
	s2.Close()

	// Trailing garbage after the last record: replay keeps every whole
	// record and truncates the tail.
	if err := os.WriteFile(walPath, append(append([]byte{}, pristine...), 0xde, 0xad, 0xbe), 0o644); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkLive(t, s3, ids, trees)
	s3.Close()
}

// TestOrphanCleanup: segment files the manifest does not reference (a crash
// between segment write and manifest commit) are deleted at open, and their
// names are never reused.
func TestOrphanCleanup(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, nil, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add(s.NextID(), chainTree(s.Labels(), 3)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	orphan := filepath.Join(dir, "seg-000777.tjsg")
	if err := os.WriteFile(orphan, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, "MANIFEST.tmp")
	if err := os.WriteFile(tmp, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("orphan segment survived open")
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("stray tmp file survived open")
	}
	if s2.segSeq <= 777 {
		t.Fatalf("segment sequence %d reuses the orphan's range", s2.segSeq)
	}
}

// TestBulk: the SaveTo path — one segment holding a whole corpus, dedup
// included, reopening bit-identically.
func TestBulk(t *testing.T) {
	dir := t.TempDir()
	lt := tree.NewLabelTable()
	trees := []*tree.Tree{chainTree(lt, 3), chainTree(lt, 5), chainTree(lt, 3)}
	ids := []int64{2, 5, 9}
	s, err := Create(dir, lt, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Bulk(ids, trees, 12); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Blocks != 2 || st.Entries != 3 {
		t.Fatalf("stats %+v, want 2 blocks / 3 entries", st)
	}
	s.Close()
	s2, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	checkLive(t, s2, ids, trees)
	if got := s2.NextID(); got != 12 {
		t.Fatalf("next id %d, want 12", got)
	}
}

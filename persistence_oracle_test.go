// The persistence oracle: a persistent corpus subjected to a random
// Add/Remove sequence interleaved with close/reopen cycles (and a SaveTo
// round trip) must remain observationally identical to a corpus freshly built
// over the surviving trees — bit-identical SelfJoin results for every method
// at every threshold. This extends the mutation oracle across the storage
// boundary: WAL replay, segment flushes, tombstones, compaction and both
// segment format versions all sit on the query path it checks.
package treejoin_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"treejoin"
	"treejoin/internal/synth"
)

func TestPersistenceOracle(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	rng := rand.New(rand.NewSource(43))
	parts := drawParts(rng)
	cp, err := treejoin.OpenSharded(dir, parts,
		treejoin.WithMemtableBudget(16), treejoin.WithStoreNoSync())
	if err != nil {
		t.Fatal(err)
	}
	// One synthetic pool re-interned into the store's label table; the first
	// 60 seed the corpus (enough to engage the token-index machinery), the
	// rest feed the Add stream.
	pool := reintern(synth.Generate(synth.SyntheticParams(95, 3, 5, 20, 60, 71)), cp.Labels())
	ids, err := cp.Add(pool[:60]...)
	if err != nil {
		t.Fatal(err)
	}
	liveIDs := append([]int(nil), ids...)
	next := 60

	for step := 0; step < 4; step++ {
		if rng.Intn(2) == 0 && next < len(pool) {
			n := 1 + rng.Intn(3)
			if next+n > len(pool) {
				n = len(pool) - next
			}
			ids, err := cp.Add(pool[next : next+n]...)
			if err != nil {
				t.Fatalf("step %d Add: %v", step, err)
			}
			liveIDs = append(liveIDs, ids...)
			next += n
		} else {
			n := 1 + rng.Intn(4)
			for k := 0; k < n && len(liveIDs) > 50; k++ {
				i := rng.Intn(len(liveIDs))
				if cp.Remove(liveIDs[i]) != 1 {
					t.Fatalf("step %d: Remove(%d) failed", step, liveIDs[i])
				}
				liveIDs = append(liveIDs[:i], liveIDs[i+1:]...)
			}
		}
		// Every other step crosses the storage boundary before checking.
		if step%2 == 1 {
			if err := cp.Close(); err != nil {
				t.Fatalf("step %d Close: %v", step, err)
			}
			parts = 4 - parts // the partition is not part of the store: one part, then three, or the reverse
			cp, err = treejoin.OpenSharded(dir, parts,
				treejoin.WithMemtableBudget(16), treejoin.WithStoreNoSync())
			if err != nil {
				t.Fatalf("step %d reopen on %d parts: %v", step, parts, err)
			}
			// Reopening rebuilds the label table from the manifest; the Add
			// stream must target the live table.
			pool = reintern(pool, cp.Labels())
		}
		checkSelfOracle(t, "persist step "+string(rune('0'+step)), cp)
	}

	// Stable ids must address the same trees across every cycle.
	for _, id := range liveIDs {
		if _, ok := cp.PosOf(id); !ok {
			t.Fatalf("live id %d lost across reopen cycles", id)
		}
	}
	if cp.Len() != len(liveIDs) {
		t.Fatalf("corpus has %d trees, oracle %d", cp.Len(), len(liveIDs))
	}

	// SaveTo leg: persist the survivors as a second store; its reopened
	// corpus must satisfy the same oracle, and a cross join between the two
	// reopened corpora must match fresh corpora over the same memberships.
	dir2 := filepath.Join(t.TempDir(), "saved")
	mem := mustCorpus(t, cp.Trees())
	if err := mem.SaveTo(dir2); err != nil {
		t.Fatal(err)
	}
	re, err := treejoin.Open(dir2, treejoin.WithStoreNoSync())
	if err != nil {
		t.Fatal(err)
	}
	checkSelfOracle(t, "persist saveto", re)
	other := mustCorpus(t, reintern(pool[:20], re.Labels()))
	checkCrossOracle(t, "persist cross", re, other)
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
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
	checkSelfOracle(t, "v1 + v2 segments", cp)

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
	checkSelfOracle(t, "compacted reopen", re)
}

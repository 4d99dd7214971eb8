package segstore

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"treejoin/internal/tree"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenFixture builds a small deterministic store image: three distinct
// trees (one added twice, exercising dedup) and one tombstone in the manifest.
// Any byte-level change to the segment or manifest encodings is a format break
// and must bump the version byte.
func goldenFixture(t *testing.T) (lt *tree.LabelTable, blocks []*block, entries []segEntry, m *manifest) {
	t.Helper()
	lt = tree.NewLabelTable()
	mk := func(build func(b *tree.Builder)) *tree.Tree {
		b := tree.NewBuilder(lt)
		build(b)
		return b.MustBuild()
	}
	t1 := mk(func(b *tree.Builder) {
		r := b.Root("article")
		a := b.Child(r, "author")
		b.Child(a, "name")
		b.Child(r, "title")
	})
	t2 := mk(func(b *tree.Builder) {
		r := b.Root("article")
		b.Child(r, "title")
	})
	t3 := mk(func(b *tree.Builder) {
		b.Root("note")
	})
	blocks = []*block{newBlock(new(cw), t1), newBlock(new(cw), t2), newBlock(new(cw), t3)}
	// Entry 2 reuses block 0: the duplicate-content case.
	entries = []segEntry{{id: 3, blk: 0}, {id: 5, blk: 1}, {id: 8, blk: 0}, {id: 12, blk: 2}}
	m = &manifest{
		nextID: 13,
		lt:     lt,
		segs: []manifestSeg{
			{name: "seg-000001.tjsg", nEntries: 4, tombs: []int32{1}},
		},
	}
	return lt, blocks, entries, m
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: encoding drifted from golden bytes (len %d, want %d); "+
			"a deliberate format change must bump the version byte and regenerate with -update",
			name, len(got), len(want))
	}
}

// goldenV1 is the frozen version 1 image of goldenFixture's segment, written
// by the last encoder of that format (arena-view cells per block, a token
// section after the entries): the read fixture for directories older than
// version 2. It pairs with golden_manifest.tjmf, which names it seg-000001.tjsg.
const goldenV1 = "golden_segment_v1.tjsg"

// goldenV1Dir lays a version 1 store directory out of the two golden files.
func goldenV1Dir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for from, to := range map[string]string{goldenV1: "seg-000001.tjsg", "golden_manifest.tjmf": manifestName} {
		data, err := os.ReadFile(filepath.Join("testdata", from))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, to), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestSegmentGolden pins the version 2 bytes the encoder writes, and that the
// decoder reads them and the frozen version 1 image to the same trees, entries
// and block addresses — what lets blocks of both versions dedup together.
func TestSegmentGolden(t *testing.T) {
	lt, blocks, entries, _ := goldenFixture(t)
	v2 := encodeSegment(lt, blocks, entries)
	checkGolden(t, "golden_segment.tjsg", v2)
	v1, err := os.ReadFile(filepath.Join("testdata", goldenV1))
	if err != nil {
		t.Fatal(err)
	}
	for version, data := range map[byte][]byte{1: v1, 2: v2} {
		if data[4] != version {
			t.Fatalf("v%d image carries version byte %d", version, data[4])
		}
		lt2 := tree.NewLabelTable()
		for i := 0; i < lt.Len(); i++ {
			lt2.Intern(lt.Name(int32(i)))
		}
		blocks2, stored, entries2, err := decodeSegment(data, lt2)
		if err != nil {
			t.Fatalf("v%d: %v", version, err)
		}
		if len(blocks2) != len(blocks) || len(entries2) != len(entries) {
			t.Fatalf("v%d: %d blocks / %d entries, want %d / %d",
				version, len(blocks2), len(entries2), len(blocks), len(entries))
		}
		for i, e := range entries2 {
			if e != entries[i] {
				t.Fatalf("v%d entry %d: got %+v want %+v", version, i, e, entries[i])
			}
		}
		if (version == 1) != (stored != nil) {
			t.Fatalf("v%d: %d stored v1 addresses", version, len(stored))
		}
		for i, b := range blocks2 {
			if !tree.Equal(b.t, blocks[i].t) {
				t.Fatalf("v%d block %d: tree mismatch", version, i)
			}
			if b.hash != blocks[i].hash {
				t.Fatalf("v%d block %d: address differs from the encoder's", version, i)
			}
			if stored != nil && stored[i] != v1Address(new(cw), b.t) {
				t.Fatalf("v1 block %d: stored address is not the re-derived one", i)
			}
		}
	}
}

// TestGoldenV1Directory: a directory written before version 2 opens to the
// live set its manifest describes and scrubs clean.
func TestGoldenV1Directory(t *testing.T) {
	_, blocks, _, _ := goldenFixture(t)
	s, err := Open(goldenV1Dir(t), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	checkLive(t, s, []int64{3, 8, 12}, []*tree.Tree{blocks[0].t, blocks[0].t, blocks[2].t})
	rep, err := s.Scrub()
	if err != nil || rep.Segments != 1 || rep.Blocks != 3 || rep.Entries != 4 {
		t.Fatalf("scrub of the v1 directory: %+v, %v", rep, err)
	}
}

func TestManifestGolden(t *testing.T) {
	_, _, _, m := goldenFixture(t)
	tmp := filepath.Join(t.TempDir(), manifestName)
	if err := writeManifestTo(osFS{}, tmp, m, true); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(tmp)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_manifest.tjmf", got)

	m2, err := readManifest(osFS{}, tmp)
	if err != nil {
		t.Fatal(err)
	}
	if m2.nextID != m.nextID || m2.lt.Len() != m.lt.Len() || len(m2.segs) != len(m.segs) {
		t.Fatalf("round trip: %+v", m2)
	}
	s, s2 := m.segs[0], m2.segs[0]
	if s2.name != s.name || s2.nEntries != s.nEntries || len(s2.tombs) != 1 || s2.tombs[0] != 1 {
		t.Fatalf("round trip segment: %+v want %+v", s2, s)
	}
}

// TestDatasetGolden pins the dataset file of goldenFixture's trees, one per
// entry (so the first tree comes twice). The golden bytes were written by an
// earlier, separate dataset encoder, and must not be regenerated: every file
// it wrote has to keep reading.
func TestDatasetGolden(t *testing.T) {
	lt, blocks, entries, _ := goldenFixture(t)
	var ts []*tree.Tree
	for _, e := range entries {
		ts = append(ts, blocks[e.blk].t)
	}
	data, err := encodeDataset(lt, ts)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_dataset.tjds", data)
	lt2, ts2, err := decodeDataset(data)
	if err != nil {
		t.Fatal(err)
	}
	if lt2.Len() != lt.Len() || len(ts2) != len(ts) {
		t.Fatalf("round trip: %d labels / %d trees, want %d / %d", lt2.Len(), len(ts2), lt.Len(), len(ts))
	}
	for i := range ts {
		if tree.FormatBracket(ts2[i]) != tree.FormatBracket(ts[i]) {
			t.Fatalf("tree %d: %s, want %s", i, tree.FormatBracket(ts2[i]), tree.FormatBracket(ts[i]))
		}
	}
}

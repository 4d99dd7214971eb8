package segstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"treejoin/internal/tree"
)

// The decoders face whatever bytes a crash, a bit flip, or a hostile file
// leaves on disk. The contract under fuzzing: arbitrary input either decodes
// or returns an error wrapping ErrCorrupt — never a panic, never an
// out-of-range read, never an unbounded allocation (the caps in format.go).

func fuzzSeeds(f *testing.F, names ...string) {
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		// Corrupted variants: truncations and single-byte flips at a spread
		// of offsets, so the corpus starts with near-valid inputs.
		for _, cut := range []int{0, 4, 5, len(data) / 2, len(data) - 1} {
			if cut <= len(data) {
				f.Add(data[:cut])
			}
		}
		for off := 0; off < len(data); off += 1 + len(data)/16 {
			mut := append([]byte(nil), data...)
			mut[off] ^= 0xff
			f.Add(mut)
		}
	}
	f.Add([]byte{})
	f.Add([]byte("TJXX"))
}

// fuzzLabelTable returns a label table with enough entries that tree streams
// referencing moderate label ids are in range, exercising deeper decode paths.
func fuzzLabelTable() *tree.LabelTable {
	lt := tree.NewLabelTable()
	for i := 0; i < 1024; i++ {
		lt.Intern(fmt.Sprintf("L%d", i))
	}
	return lt
}

func FuzzSegmentDecode(f *testing.F) {
	fuzzSeeds(f, goldenV1, "golden_segment.tjsg")
	lt := fuzzLabelTable()
	f.Fuzz(func(t *testing.T, data []byte) {
		blocks, v1, entries, err := decodeSegment(data, lt)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("non-corruption error: %v", err)
			}
			return
		}
		// Accepted input must satisfy the segment invariants the store
		// relies on: in-range block references and ascending entry ids.
		prev := int64(-1)
		for _, e := range entries {
			if e.blk < 0 || int(e.blk) >= len(blocks) {
				t.Fatalf("entry references block %d of %d", e.blk, len(blocks))
			}
			if e.id <= prev {
				t.Fatalf("entry ids not ascending: %d after %d", e.id, prev)
			}
			prev = e.id
		}
		if v1 != nil && len(v1) != len(blocks) {
			t.Fatalf("%d v1 addresses for %d blocks", len(v1), len(blocks))
		}
		for i, b := range blocks {
			if b.t == nil {
				t.Fatalf("block %d accepted with a nil tree", i)
			}
		}
	})
}

func FuzzManifestDecode(f *testing.F) {
	fuzzSeeds(f, "golden_manifest.tjmf")
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeManifest(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("non-corruption error: %v", err)
			}
			return
		}
		for _, s := range m.segs {
			if _, ok := segNameSeq(s.name); !ok {
				t.Fatalf("accepted malformed segment name %q", s.name)
			}
			for i, p := range s.tombs {
				if p < 0 || int(p) >= s.nEntries || (i > 0 && p <= s.tombs[i-1]) {
					t.Fatalf("accepted invalid tombstones %v (nEntries %d)", s.tombs, s.nEntries)
				}
			}
		}
	})
}

// FuzzWALReplay drives the full replay path, including the truncate-torn-tail
// repair, against arbitrary WAL images.
func FuzzWALReplay(f *testing.F) {
	// Seed with a real WAL: two adds and a remove.
	lt := tree.NewLabelTable()
	b := tree.NewBuilder(lt)
	r := b.Root("x")
	b.Child(r, "y")
	tr := b.MustBuild()
	var img bytes.Buffer
	img.Write(walMagic[:])
	img.WriteByte(walVersion)
	img.Write(appendAdd(nil, 1, lt, 0, lt.Len(), tr))
	img.Write(appendAdd(nil, 2, lt, lt.Len(), lt.Len(), tr))
	img.Write(appendRemove(nil, 1))
	f.Add(img.Bytes())
	f.Add(img.Bytes()[:img.Len()-3])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, walName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ops, err := replayWAL(osFS{}, path, tree.NewLabelTable(), true)
		if err != nil {
			t.Fatalf("replayWAL must repair, not fail: %v", err)
		}
		for _, op := range ops {
			if !op.remove && op.t == nil {
				t.Fatal("add op with nil tree")
			}
		}
	})
}

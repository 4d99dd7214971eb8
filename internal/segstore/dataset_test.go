package segstore_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"treejoin/internal/segstore"
	"treejoin/internal/synth"
	"treejoin/internal/tree"
)

func roundTrip(t *testing.T, lt *tree.LabelTable, ts []*tree.Tree) (*tree.LabelTable, []*tree.Tree) {
	t.Helper()
	var buf bytes.Buffer
	if err := segstore.WriteDataset(&buf, lt, ts); err != nil {
		t.Fatalf("Write: %v", err)
	}
	lt2, ts2, err := segstore.ReadDataset(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	return lt2, ts2
}

func TestRoundTripHandCase(t *testing.T) {
	lt := tree.NewLabelTable()
	ts := []*tree.Tree{
		tree.MustParseBracket("{a{b}{c{d}{e}}}", lt),
		tree.MustParseBracket("{x}", lt),
		tree.MustParseBracket("{a{a{a{a}}}}", lt),
	}
	lt2, ts2 := roundTrip(t, lt, ts)
	if lt2.Len() != lt.Len() {
		t.Fatalf("labels: %d != %d", lt2.Len(), lt.Len())
	}
	if len(ts2) != len(ts) {
		t.Fatalf("trees: %d != %d", len(ts2), len(ts))
	}
	for i := range ts {
		if !tree.Equal(ts[i], ts2[i]) {
			t.Fatalf("tree %d changed: %s -> %s", i,
				tree.FormatBracket(ts[i]), tree.FormatBracket(ts2[i]))
		}
		if err := ts2[i].Validate(); err != nil {
			t.Fatalf("tree %d invalid after decode: %v", i, err)
		}
	}
}

func TestRoundTripEmptyCollection(t *testing.T) {
	lt := tree.NewLabelTable()
	lt.Intern("orphan label")
	lt2, ts2 := roundTrip(t, lt, nil)
	if lt2.Len() != 1 || len(ts2) != 0 {
		t.Fatalf("labels=%d trees=%d", lt2.Len(), len(ts2))
	}
	if lt2.Name(0) != "orphan label" {
		t.Fatalf("label %q", lt2.Name(0))
	}
}

// TestRoundTripRandom: generated collections round-trip node for node,
// including exotic labels.
func TestRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(701))
	labels := []string{"", "a", "日本語", "with space", string([]byte{0, 1, 255})}
	for trial := 0; trial < 30; trial++ {
		lt := tree.NewLabelTable()
		var ts []*tree.Tree
		for i := 0; i < 20; i++ {
			n := 1 + rng.Intn(40)
			b := tree.NewBuilder(lt)
			b.Root(labels[rng.Intn(len(labels))])
			for j := 1; j < n; j++ {
				b.Child(int32(rng.Intn(j)), labels[rng.Intn(len(labels))])
			}
			ts = append(ts, b.MustBuild())
		}
		_, ts2 := roundTrip(t, lt, ts)
		for i := range ts {
			if !tree.Equal(ts[i], ts2[i]) {
				t.Fatalf("trial %d tree %d changed", trial, i)
			}
		}
	}
}

func TestRoundTripSynthProfile(t *testing.T) {
	ts := synth.Synthetic(100, 7)
	if len(ts) == 0 {
		t.Fatal("no trees")
	}
	lt := ts[0].Labels
	_, ts2 := roundTrip(t, lt, ts)
	for i := range ts {
		if !tree.Equal(ts[i], ts2[i]) {
			t.Fatalf("tree %d changed", i)
		}
	}
}

func TestWriteRejectsForeignTable(t *testing.T) {
	lt1 := tree.NewLabelTable()
	lt2 := tree.NewLabelTable()
	a := tree.MustParseBracket("{a}", lt1)
	b := tree.MustParseBracket("{a}", lt2)
	var buf bytes.Buffer
	if err := segstore.WriteDataset(&buf, lt1, []*tree.Tree{a, b}); err == nil {
		t.Fatal("expected error for foreign label table")
	}
}

// TestCorruptionDetected: every single-byte flip in the payload either
// fails to decode or fails the checksum — never yields silently wrong data.
func TestCorruptionDetected(t *testing.T) {
	lt := tree.NewLabelTable()
	ts := []*tree.Tree{
		tree.MustParseBracket("{a{b}{c{d}}}", lt),
		tree.MustParseBracket("{b{a}}", lt),
	}
	var buf bytes.Buffer
	if err := segstore.WriteDataset(&buf, lt, ts); err != nil {
		t.Fatal(err)
	}
	orig := buf.Bytes()
	for pos := 0; pos < len(orig); pos++ {
		mut := make([]byte, len(orig))
		copy(mut, orig)
		mut[pos] ^= 0x41
		lt2, ts2, err := segstore.ReadDataset(bytes.NewReader(mut))
		if err != nil {
			continue // detected — good
		}
		// An undetected flip must still decode to the identical collection
		// (CRC32 cannot collide on a single-byte flip, so reaching here
		// means the flip was in a byte the decoder never consumed — which
		// this format does not have).
		_ = lt2
		same := len(ts2) == len(ts)
		for i := 0; same && i < len(ts); i++ {
			same = tree.Equal(ts[i], ts2[i])
		}
		t.Fatalf("flip at byte %d of %d went undetected (equal=%v)", pos, len(orig), same)
	}
}

func TestTruncationDetected(t *testing.T) {
	lt := tree.NewLabelTable()
	ts := []*tree.Tree{tree.MustParseBracket("{a{b}{c}}", lt)}
	var buf bytes.Buffer
	if err := segstore.WriteDataset(&buf, lt, ts); err != nil {
		t.Fatal(err)
	}
	orig := buf.Bytes()
	for cut := 0; cut < len(orig); cut++ {
		if _, _, err := segstore.ReadDataset(bytes.NewReader(orig[:cut])); err == nil {
			t.Fatalf("truncation at %d went undetected", cut)
		} else if !errors.Is(err, segstore.ErrCorrupt) {
			t.Fatalf("truncation at %d: error %v does not wrap ErrCorrupt", cut, err)
		}
	}
	// Trailing garbage is also rejected.
	if _, _, err := segstore.ReadDataset(bytes.NewReader(append(append([]byte{}, orig...), 0))); err == nil {
		t.Fatal("trailing byte went undetected")
	}
}

// TestHostileTreeSizeAllocatesWithinInput: a tree whose node count claims
// far more nodes than the bytes left could hold is rejected, and decoding it
// allocates by those bytes, not by the count (4 M nodes would be 64 MB).
func TestHostileTreeSizeAllocatesWithinInput(t *testing.T) {
	img := binary.AppendUvarint([]byte("TJDS\x01\x01\x01a\x01"), 1<<22) // one label, one tree
	img = append(img, 0, 0)
	img = binary.LittleEndian.AppendUint32(img, crc32.ChecksumIEEE(img[4:]))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := segstore.ReadDataset(bytes.NewReader(img))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, segstore.ErrCorrupt) {
		t.Fatalf("error %v does not wrap ErrCorrupt", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("decoding %d bytes allocated %d", len(img), grew)
	}
}

func TestBadMagicAndVersion(t *testing.T) {
	if _, _, err := segstore.ReadDataset(bytes.NewReader([]byte("NOPE0123456789"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	lt := tree.NewLabelTable()
	var buf bytes.Buffer
	if err := segstore.WriteDataset(&buf, lt, nil); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[4] = 99 // version
	if _, _, err := segstore.ReadDataset(bytes.NewReader(b)); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestFileHelpers(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ds.tjds")
	lt := tree.NewLabelTable()
	ts := []*tree.Tree{tree.MustParseBracket("{a{b}}", lt)}
	if err := segstore.WriteDatasetFile(path, lt, ts); err != nil {
		t.Fatal(err)
	}
	_, ts2, err := segstore.ReadDatasetFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts2) != 1 || !tree.Equal(ts[0], ts2[0]) {
		t.Fatal("file round trip changed tree")
	}
	if _, _, err := segstore.ReadDatasetFile(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing file accepted")
	}
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := segstore.ReadDatasetFile(path); err == nil {
		t.Fatal("garbage file accepted")
	}
}

// TestCompactness: the binary form of a synthetic collection is smaller
// than its bracket text (the format's reason to exist).
func TestCompactness(t *testing.T) {
	ts := synth.Synthetic(200, 11)
	lt := ts[0].Labels
	var bin bytes.Buffer
	if err := segstore.WriteDataset(&bin, lt, ts); err != nil {
		t.Fatal(err)
	}
	var text int
	for _, tr := range ts {
		text += len(tree.FormatBracket(tr)) + 1
	}
	if bin.Len() >= text {
		t.Fatalf("binary %d bytes not smaller than text %d", bin.Len(), text)
	}
}

package segstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"treejoin/internal/tree"
)

func TestScrubClean(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, nil, Options{MemtableBudget: 2, NoBackground: true, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 5; i++ {
		if err := s.Add(s.NextID(), chainTree(s.Labels(), 2+i)); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := s.Scrub()
	if err != nil {
		t.Fatalf("scrub of a healthy store: %v", err)
	}
	if rep.Segments < 2 || rep.Blocks < 4 || rep.Entries < 4 || len(rep.Faults) != 0 {
		t.Fatalf("implausible clean report: %+v", rep)
	}
}

// resealSegment recomputes a segment file's CRC trailer after a deliberate
// payload edit, so the corruption survives the decoder's bulk CRC and only a
// deeper check can find it.
func resealSegment(t *testing.T, path string, edit func(data []byte)) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	edit(data)
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(data[4:len(data)-4]))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestScrubCatchesBitRot flips one byte inside a stored content address and
// re-seals the file CRC — corruption the open path cannot see, because the
// decoder trusts addresses under the CRC (and never reads a version 1 one at
// all). Scrub re-derives every address, each the way its format version
// computed it, and must catch it.
func TestScrubCatchesBitRot(t *testing.T) {
	lt := tree.NewLabelTable()
	tr := chainTree(lt, 5)
	v2Dir := t.TempDir()
	s, err := Create(v2Dir, lt, Options{MemtableBudget: 1, NoBackground: true, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add(s.NextID(), tr); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_, goldenBlocks, _, _ := goldenFixture(t)
	for _, tc := range []struct {
		dir, seg string
		addr     [32]byte
	}{
		{v2Dir, "seg-000000.tjsg", newBlock(new(cw), tr).hash},
		{goldenV1Dir(t), "seg-000001.tjsg", v1Address(new(cw), goldenBlocks[0].t)},
	} {
		// The block's content address appears verbatim in the file; find and
		// flip it, then re-seal the CRC trailer over the edit.
		resealSegment(t, filepath.Join(tc.dir, tc.seg), func(data []byte) {
			i := bytes.Index(data, tc.addr[:])
			if i < 0 {
				t.Fatalf("%s: stored content address not found in segment file", tc.seg)
			}
			data[i] ^= 0xff
		})
		s2, err := Open(tc.dir, Options{NoBackground: true, NoSync: true})
		if err != nil {
			t.Fatalf("open does not re-hash, so it must still succeed: %v", err)
		}
		rep, err := s2.Scrub()
		if err == nil || !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: scrub missed the flipped content address: %v", tc.seg, err)
		}
		if len(rep.Faults) != 1 || rep.Faults[0].Name != tc.seg ||
			!strings.Contains(rep.Faults[0].Err, "content address mismatch") {
			t.Fatalf("wrong fault: %+v", rep.Faults)
		}
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestScrubCatchesRotUnderOpenStore covers the CRC layer and Scrub's reason
// for existing: a file that rots on disk *after* the store decoded it. The
// open store keeps serving from memory; Scrub re-reads the disk and reports
// the rot before the next reopen would trip over it.
func TestScrubCatchesRotUnderOpenStore(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, nil, Options{MemtableBudget: 1, NoBackground: true, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Add(s.NextID(), chainTree(s.Labels(), 4)); err != nil {
		t.Fatal(err)
	}
	segPath := filepath.Join(dir, "seg-000000.tjsg")
	data, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(segPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if live := s.Live(); len(live) != 1 {
		t.Fatalf("in-memory reads must not notice disk rot: %d live", len(live))
	}
	rep, err := s.Scrub()
	if err == nil || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("scrub missed the broken CRC: %v", err)
	}
	if len(rep.Faults) != 1 || rep.Faults[0].Name != "seg-000000.tjsg" {
		t.Fatalf("wrong fault: %+v", rep.Faults)
	}
}

// TestSalvage is the quarantine path end to end: a store with one rotten
// segment refuses a plain open, opens under Salvage with the segment set
// aside (preserved under *.quarantine), keeps every readable tree including
// the WAL-held memtable, reports the loss with id bounds, and commits a
// manifest that makes the next plain open clean.
func TestSalvage(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, nil, Options{MemtableBudget: 2, NoBackground: true, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	var ids []int64
	var trees []*tree.Tree
	for i := 0; i < 5; i++ {
		tr := chainTree(s.Labels(), 2+i)
		id := s.NextID()
		if err := s.Add(id, tr); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		trees = append(trees, tr)
	}
	// Two segments of two trees each; the fifth lives only in the WAL. The
	// store is abandoned un-Closed (the crash that let the rot go unnoticed).
	segPath := filepath.Join(dir, "seg-000000.tjsg")
	data, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(segPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(dir, Options{NoBackground: true, NoSync: true}); err == nil {
		t.Fatal("plain open accepted a corrupt segment")
	}
	s2, err := Open(dir, Options{NoBackground: true, NoSync: true, Salvage: true})
	if err != nil {
		t.Fatalf("salvage open: %v", err)
	}
	rep := s2.SalvageReport()
	if len(rep) != 1 {
		t.Fatalf("salvage report: %+v", rep)
	}
	q := rep[0]
	if q.Name != "seg-000000.tjsg" || q.Entries != 2 || q.Live != 2 {
		t.Fatalf("wrong quarantine record: %+v", q)
	}
	if q.IDAfter != -1 || q.IDBefore != ids[2] {
		t.Fatalf("lost-id bounds (%d, %d), want (-1, %d)", q.IDAfter, q.IDBefore, ids[2])
	}
	if st := s2.Stats(); st.QuarantinedSegments != 1 {
		t.Fatalf("stats: %+v", st)
	}
	// Quarantine never drops a readable live tree: the second segment and
	// the WAL-held fifth tree all survive.
	checkLive(t, s2, ids[2:], trees[2:])
	if _, err := os.Stat(segPath + quarantineSuffix); err != nil {
		t.Fatalf("quarantined file not preserved: %v", err)
	}
	if _, err := os.Stat(segPath); err == nil {
		t.Fatal("corrupt segment still present under its original name")
	}
	// The salvaged store is writable, and its committed manifest makes the
	// next plain open clean.
	id6 := s2.NextID()
	tr6 := chainTree(s2.Labels(), 9)
	if err := s2.Add(id6, tr6); err != nil {
		t.Fatalf("write after salvage: %v", err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir, Options{NoBackground: true, NoSync: true})
	if err != nil {
		t.Fatalf("plain reopen after salvage: %v", err)
	}
	defer s3.Close()
	checkLive(t, s3, append(append([]int64(nil), ids[2:]...), id6), append(append([]*tree.Tree(nil), trees[2:]...), tr6))
	if rep := s3.SalvageReport(); len(rep) != 0 {
		t.Fatalf("clean open carries a stale salvage report: %+v", rep)
	}
}

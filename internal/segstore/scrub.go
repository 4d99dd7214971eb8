package segstore

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"path/filepath"

	"treejoin/internal/ted"
	"treejoin/internal/tree"
)

// Integrity tooling. Scrub re-verifies the store's on-disk invariants end to
// end — well past what the read path checks on every open — and Salvage (an
// Open option, see Options.Salvage) turns a refusal-to-open into a bounded
// loss: whole corrupt segments are set aside and everything readable stays.

// SegmentFault is one integrity failure Scrub found.
type SegmentFault struct {
	Name string // segment file name ("" for the manifest)
	Err  string
}

// ScrubReport summarises one Scrub pass.
type ScrubReport struct {
	Segments int // segment files verified
	Blocks   int // blocks re-hashed
	Entries  int // segment entries checked
	Faults   []SegmentFault
}

// Scrub re-reads every committed file and re-verifies it bottom up: the
// manifest decodes; each segment file decodes (bulk CRC and structural
// checks), its blocks re-hash to the content addresses the file stores — of
// whichever format version — and its entry list matches the manifest's count.
// A flush or merge in flight finishes first; mutations are then blocked for
// the duration, reads of the already-decoded corpus are not affected. The
// error (wrapping ErrCorrupt) is non-nil iff any fault was found — the report
// carries the detail either way.
func (s *Store) Scrub() (ScrubReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.drainLocked()
	var rep ScrubReport
	if s.closed {
		return rep, fmt.Errorf("segstore: store is closed")
	}
	fault := func(name, format string, args ...any) {
		rep.Faults = append(rep.Faults, SegmentFault{Name: name, Err: fmt.Sprintf(format, args...)})
	}
	if _, err := readManifest(s.fs, filepath.Join(s.dir, manifestName)); err != nil {
		fault("", "manifest: %v", err)
	}
	for _, seg := range s.segs {
		rep.Segments++
		blocks, v1, entries, err := readSegmentFile(s.fs, filepath.Join(s.dir, seg.name), s.lt)
		if err != nil {
			fault(seg.name, "%v", err)
			continue
		}
		if len(entries) != len(seg.entries) {
			fault(seg.name, "%d entries on disk, %d in memory", len(entries), len(seg.entries))
			continue
		}
		rep.Entries += len(entries)
		for bi, b := range blocks {
			rep.Blocks++
			// The decoder trusts the stored address under the bulk CRC; the
			// scrub re-derives it from the decoded content, catching any
			// corruption a colliding CRC let through — and pinning that the
			// dedup map was built from honest addresses.
			stored, got := b.hash, newBlock(&s.enc, b.t).hash
			if v1 != nil {
				stored, got = v1[bi], v1Address(&s.enc, b.t)
			}
			if got != stored {
				fault(seg.name, "block %d: content address mismatch (stored %x, computed %x)", bi, stored[:8], got[:8])
			}
		}
	}
	if len(rep.Faults) > 0 {
		return rep, fmt.Errorf("segstore: scrub found %d fault(s) in %s: %w", len(rep.Faults), s.dir, ErrCorrupt)
	}
	return rep, nil
}

// v1Address re-derives the content address a version 1 segment stores for t:
// the hash of the preorder stream, the strategy costs and the length-prefixed
// little-endian cells of its arena view, which that format persisted. Nothing
// else reads those any more; Scrub rebuilds the view to keep the stored value
// honest until a compaction rewrites the file as version 2.
func v1Address(scratch *cw, t *tree.Tree) [32]byte {
	v := ted.BuildViews([]*tree.Tree{t})[0]
	scratch.b = scratch.b[:0]
	writeTreeStream(scratch, t)
	scratch.u(uint64(v.CostL))
	scratch.u(uint64(v.CostR))
	cells := ted.AppendViewCells(nil, v)
	scratch.u(uint64(len(cells)))
	for _, cell := range cells {
		scratch.b = binary.LittleEndian.AppendUint32(scratch.b, uint32(cell))
	}
	return sha256.Sum256(scratch.b)
}

// QuarantinedSegment describes one segment Open(Salvage) set aside. The id
// bounds bracket the loss: every tree the segment held had an id in
// (IDAfter, IDBefore) — exclusive bounds from the neighbouring surviving
// segments, -1 when the quarantined segment was first (no lower bound) and
// -1 for IDBefore when nothing followed it. Live and Entries come from the
// manifest (the segment itself being unreadable).
type QuarantinedSegment struct {
	Name     string // original file name; on disk it now carries ".quarantine"
	Entries  int    // entries the manifest recorded, dead included
	Live     int    // of those, not tombstoned — the upper bound on lost trees
	IDAfter  int64  // largest id of any preceding surviving segment, -1 if none
	IDBefore int64  // smallest id of any following surviving segment, -1 if none
	Err      string // why it failed verification
}

// quarantineSegment renames a corrupt segment out of the store's namespace
// (name → name.quarantine, preserving the evidence for offline forensics)
// and records the loss. Quarantine never drops a readable live tree: only a
// segment that failed verification wholesale lands here, and the rename is
// the sole mutation — every byte of the file survives under the new name. A
// failed rename is recorded but does not stop the salvage; the rewritten
// manifest no longer references the file either way, so a leftover original
// is deleted as an orphan by the next non-salvage open.
func (s *Store) quarantineSegment(ms manifestSeg, prevID int64, cause error) *QuarantinedSegment {
	q := QuarantinedSegment{
		Name:     ms.name,
		Entries:  ms.nEntries,
		Live:     ms.nEntries - len(ms.tombs),
		IDAfter:  prevID,
		IDBefore: -1,
		Err:      cause.Error(),
	}
	old := filepath.Join(s.dir, ms.name)
	if err := s.fs.Rename(old, old+quarantineSuffix); err != nil {
		q.Err = fmt.Sprintf("%v (quarantine rename failed: %v)", cause, err)
	}
	s.quarantined = append(s.quarantined, q)
	return &s.quarantined[len(s.quarantined)-1]
}

// SalvageReport returns what Open(Salvage) quarantined, empty when the open
// was clean (or Salvage was off).
func (s *Store) SalvageReport() []QuarantinedSegment {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]QuarantinedSegment, len(s.quarantined))
	copy(out, s.quarantined)
	return out
}

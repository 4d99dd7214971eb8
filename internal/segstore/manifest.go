package segstore

import (
	"fmt"
	"path/filepath"
	"strings"

	"treejoin/internal/tree"
)

// Manifest file (TJMF, version 1) — the store's commit point. It records the
// epoch's membership: the next id to assign, the full interned label table,
// and per segment its file name, entry count, and tombstoned entry
// positions. The manifest is rewritten whole (tmp + fsync + rename, then a
// directory fsync), so a crash leaves either the old or the new epoch, never
// a mix; segment files and WAL contents not reachable from the surviving
// manifest are orphans the next open deletes or replays idempotently.
//
//	magic   "TJMF" (4 bytes), version byte
//	nextID
//	labelCount, then per label: byteLen, bytes
//	segmentCount, then per segment:
//	    nameLen, name
//	    entryCount
//	    tombstoneCount, then per tombstone: entry position
//	        (delta, first absolute; strictly ascending, < entryCount)
//	crc32 IEEE LE (4 bytes)

var manifestMagic = [4]byte{'T', 'J', 'M', 'F'}

const manifestVersion = 1

const (
	manifestName     = "MANIFEST"
	walName          = "WAL"
	segPattern       = "seg-%06d.tjsg"
	quarantineSuffix = ".quarantine"
)

// manifest is the decoded commit record.
type manifest struct {
	nextID int64
	lt     *tree.LabelTable
	labels int // how many of lt's labels writeManifestTo wrote (lt may grow meanwhile)
	segs   []manifestSeg
}

type manifestSeg struct {
	name     string
	nEntries int
	tombs    []int32 // dead entry positions, ascending
}

// writeManifestTo commits a manifest: tmp file, fsync, rename, directory
// fsync. Every step's error propagates — with sync enabled, a failed
// directory fsync is a failed commit (the rename may not survive a crash),
// and the caller must treat the previous manifest as still current.
func writeManifestTo(fsys FS, path string, m *manifest, noSync bool) error {
	c := newCW(nil, manifestMagic, manifestVersion)
	c.u(uint64(m.nextID))
	m.labels = m.lt.Len()
	writeLabels(c, m.lt, m.labels)
	c.u(uint64(len(m.segs)))
	for _, s := range m.segs {
		c.str(s.name)
		c.u(uint64(s.nEntries))
		c.u(uint64(len(s.tombs)))
		prev := int32(0)
		for i, p := range s.tombs {
			if i == 0 {
				c.u(uint64(p))
			} else {
				c.u(uint64(p - prev))
			}
			prev = p
		}
	}
	return replaceFile(fsys, path, c.finish(), noSync)
}

// writeLabels writes the label list of the manifest and the dataset file:
// the count n, then lt's first n names, each with its length in front.
func writeLabels(c *cw, lt *tree.LabelTable, n int) {
	c.u(uint64(n))
	for id := 0; id < n; id++ {
		c.str(lt.Name(int32(id)))
	}
}

// readLabels decodes a label list into a fresh table, name i at id i; a name
// listed twice is corrupt.
func readLabels(d *sd) *tree.LabelTable {
	lt := tree.NewLabelTable()
	n := d.u(maxLabels, "label count")
	for i := uint64(0); i < n && d.err == nil; i++ {
		name := d.str(maxLabelLen, "label")
		if d.err == nil && lt.Intern(name) != int32(i) {
			d.bad("duplicate label %q", name)
		}
	}
	return lt
}

func readManifest(fsys FS, path string) (*manifest, error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeManifest(data)
}

func decodeManifest(data []byte) (*manifest, error) {
	d := newSD(data, manifestMagic, manifestVersion, "manifest")
	m := &manifest{nextID: int64(d.u(maxID, "next id"))}
	m.lt = readLabels(d)
	nSegs := d.u(maxSegments, "segment count")
	if d.err != nil {
		return nil, d.err
	}
	seen := make(map[string]bool, int(nSegs))
	for si := uint64(0); si < nSegs; si++ {
		var s manifestSeg
		s.name = d.str(maxNameLen, "segment name")
		nEntries := d.u(maxEntries, "segment entry count")
		nTombs := d.u(nEntries, "tombstone count")
		if d.err != nil {
			return nil, d.err
		}
		if _, ok := segNameSeq(s.name); !ok {
			return nil, corruptf("segment name %q not of the form %s", s.name, segPattern)
		}
		if seen[s.name] {
			return nil, corruptf("segment %q listed twice", s.name)
		}
		seen[s.name] = true
		s.nEntries = int(nEntries)
		prev := int64(-1)
		for ti := uint64(0); ti < nTombs; ti++ {
			var p int64
			if ti == 0 {
				p = int64(d.u(nEntries, "tombstone position"))
			} else {
				p = prev + int64(d.u(nEntries, "tombstone delta"))
			}
			if d.err != nil {
				return nil, d.err
			}
			if p <= prev || p >= int64(nEntries) {
				return nil, corruptf("segment %q: tombstone %d invalid", s.name, p)
			}
			prev = p
			s.tombs = append(s.tombs, int32(p))
		}
		m.segs = append(m.segs, s)
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	return m, nil
}

// segNameSeq extracts the sequence number of a segment file name.
func segNameSeq(name string) (int, bool) {
	if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".tjsg") {
		return 0, false
	}
	var seq int
	if _, err := fmt.Sscanf(name, segPattern, &seq); err != nil || seq < 0 {
		return 0, false
	}
	if fmt.Sprintf(segPattern, seq) != name {
		return 0, false
	}
	return seq, true
}

// cleanOrphans deletes segment-shaped files in dir that the manifest does not
// reference (a crash between segment write and manifest commit leaves them)
// and stray tmp files, returning the highest sequence number seen anywhere so
// new segments never reuse a name. Quarantined files (see Salvage) do not
// match the segment pattern and are left alone.
func cleanOrphans(fsys FS, dir string, m *manifest) (maxSeq int, err error) {
	live := make(map[string]bool, len(m.segs))
	for _, s := range m.segs {
		if seq, ok := segNameSeq(s.name); ok && seq > maxSeq {
			maxSeq = seq
		}
		live[s.name] = true
	}
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return maxSeq, err
	}
	for _, name := range names {
		if strings.HasSuffix(name, ".tmp") {
			// Best-effort: a stray tmp file is inert either way.
			_ = fsys.Remove(filepath.Join(dir, name))
			continue
		}
		seq, ok := segNameSeq(name)
		if !ok {
			continue
		}
		if seq > maxSeq {
			maxSeq = seq
		}
		if !live[name] {
			if err := fsys.Remove(filepath.Join(dir, name)); err != nil {
				return maxSeq, err
			}
		}
	}
	return maxSeq, nil
}

// sortedTombs returns a segment's dead positions ascending, for the manifest.
func sortedTombs(dead []bool) []int32 {
	var out []int32
	for i, dd := range dead {
		if dd {
			out = append(out, int32(i))
		}
	}
	return out
}

// Package segstore implements the persistent corpus: an on-disk directory of
// immutable segment files (canonical tree encodings and the ids that map onto
// them — nothing derived from the trees is stored), a manifest tracking
// segment membership and tombstones, and a write-ahead log making the memtable
// durable — an LSM-flavoured lifecycle where Add appends to a WAL-backed
// memtable, Remove tombstones in the manifest, and compaction merges segments
// once tombstones outnumber live entries. Trees are content-addressed by a
// hash of their canonical encoding, so duplicates across segments dedup to one
// tree in memory and one block per segment on disk.
//
// Crash safety: the manifest rename is the commit point. Every manifest
// rewrite is accompanied by a WAL rewrite holding exactly the surviving
// memtable, in that order — WAL data is never discarded before the state it
// fed is committed — and replay is idempotent against operations the manifest
// already reflects, so a crash in the window between the two rewrites loses
// nothing. See DESIGN.md, "Persistent segments".
//
// The same codec — one frame, one label list, one tree stream — also writes
// and reads the dataset file (WriteDataset, ReadDataset), a whole collection
// with its label table in one checksummed image. See DESIGN.md, "File formats
// and content addressing".
package segstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Sanity caps: a corrupt or hostile header must not drive allocations. All
// far above anything the module generates.
const (
	maxLabels    = 1 << 26
	maxLabelLen  = 1 << 20
	maxTrees     = 1 << 28
	maxTreeNodes = 1 << 28
	maxBlocks    = 1 << 24
	maxEntries   = 1 << 28
	maxSegments  = 1 << 20
	maxNameLen   = 1 << 10
	maxID        = 1 << 56
	maxCost      = 1 << 56
)

// ErrCorrupt reports a malformed or truncated file of any kind this package
// reads — segment, manifest, WAL or dataset; errors.Is against it matches
// every decode failure produced by this package, and each message names the
// kind of file.
var ErrCorrupt = errors.New("segstore: corrupt file")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// cw is the common encoder: it appends into one buffer, and finish takes the
// CRC of everything after the magic in one pass and appends the trailer. The
// WAL's record encoders share u and str over a plain buffer.
type cw struct{ b []byte }

func newCW(dst []byte, magic [4]byte, version byte) *cw {
	return &cw{b: append(append(dst, magic[:]...), version)}
}

func (c *cw) u(v uint64)   { c.b = binary.AppendUvarint(c.b, v) }
func (c *cw) raw(p []byte) { c.b = append(c.b, p...) }

func (c *cw) str(s string) {
	c.u(uint64(len(s)))
	c.b = append(c.b, s...)
}

func (c *cw) finish() []byte {
	return binary.LittleEndian.AppendUint32(c.b, crc32.ChecksumIEEE(c.b[4:]))
}

// sd is the matching decoder: a cursor over bytes already in memory — a whole
// file image, whose header and CRC trailer newSD verifies in one bulk pass up
// front, or the payload of one WAL record (a bare &sd{data: …}, checksummed by
// its caller). Parsing runs straight off the slice. Sticky-error: the first
// corruption poisons every later read, so decode loops need no per-call
// checks; uvarints are capped.
type sd struct {
	data    []byte // what may be read: a file image minus its CRC trailer
	pos     int
	version byte // of a file image: 1..the newest the caller reads
	err     error
	stack   []streamFrame // readTreeStream's, reused across the image's trees
}

// streamFrame is a node of readTreeStream's stack: its id, its last child
// so far, and how many children it still expects.
type streamFrame struct {
	id, last int32
	pending  uint64
}

// newSD opens a file image written at any version from 1 to version.
func newSD(data []byte, magic [4]byte, version byte, what string) *sd {
	d := &sd{}
	if len(data) < 9 {
		d.err = corruptf("%s: truncated (%d bytes)", what, len(data))
		return d
	}
	if !bytes.Equal(data[:4], magic[:]) {
		d.err = corruptf("%s: bad magic %q", what, data[:4])
		return d
	}
	got := crc32.ChecksumIEEE(data[4 : len(data)-4])
	if want := binary.LittleEndian.Uint32(data[len(data)-4:]); got != want {
		d.err = corruptf("%s: checksum mismatch: %08x != %08x", what, got, want)
		return d
	}
	if data[4] == 0 || data[4] > version {
		d.err = corruptf("%s: unsupported version %d", what, data[4])
		return d
	}
	d.data = data[: len(data)-4 : len(data)-4]
	d.pos, d.version = 5, data[4]
	return d
}

func (d *sd) bad(format string, args ...any) {
	if d.err == nil {
		d.err = corruptf(format, args...)
	}
}

func (d *sd) u(cap uint64, what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		d.bad("reading %s: truncated varint", what)
		return 0
	}
	if v > cap {
		d.bad("%s %d exceeds limit %d", what, v, cap)
		return 0
	}
	d.pos += n
	return v
}

// take returns the next n bytes without copying; the slice aliases the image.
func (d *sd) take(n int, what string) []byte {
	if d.err != nil {
		return nil
	}
	if n > len(d.data)-d.pos {
		d.bad("reading %s: truncated", what)
		return nil
	}
	p := d.data[d.pos : d.pos+n]
	d.pos += n
	return p
}

func (d *sd) str(cap uint64, what string) string {
	n := d.u(cap, what+" length")
	if d.err != nil || n == 0 {
		return ""
	}
	return string(d.take(int(n), what))
}

func (d *sd) finish() error {
	if d.err != nil {
		return d.err
	}
	if d.pos != len(d.data) {
		return corruptf("%d trailing bytes before checksum", len(d.data)-d.pos)
	}
	return nil
}

package segstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"

	"treejoin/internal/tree"
)

// Write-ahead log (TJWL, version 1). Every mutation call appends its records
// — one per tree or id of the batch — in one write and syncs once before the
// in-memory state changes, so the memtable survives a crash. Records are
// individually CRC'd (there is no trailer — the file grows); a torn tail
// truncates back to the last whole record:
//
//	magic   "TJWL" (4 bytes), version byte
//	records, each: kind byte, payload, crc32 IEEE LE over kind+payload
//	'A' payload: id, prevLabels, newLabelCount, per label: byteLen, bytes,
//	    then the tree's preorder (label, childCount) stream
//	'R' payload: id
//
// The label table grows as trees arrive; an 'A' record carries exactly the
// labels appended since the previous record (prevLabels = table length
// before them), so replay reconstructs the table incrementally — and when
// the record is stale (already reflected in a newer manifest, whose table
// contains those labels), the splice validates instead of appending.
//
// Replay is idempotent by construction (see replayWAL): the WAL is rewritten
// at every manifest commit to hold exactly the surviving memtable, but the
// rewrite happens *after* the manifest rename, so a crash in between leaves
// a stale WAL whose records are all either already in the manifest (skipped)
// or still memtable-bound (applied) — nothing is lost and nothing doubles.

var walMagic = [4]byte{'T', 'J', 'W', 'L'}

const walVersion = 1

// errWALClosed reports an append on a writer that failed closed (a partial
// append it could not claw back) or was released; the store surfaces it as
// degraded mode.
var errWALClosed = errors.New("segstore: WAL writer is closed")

// walWriter appends records to the open WAL file. It tracks the last good
// record boundary: a partial append (short write, or a write or sync error
// after bytes may have landed) truncates the file back to that boundary so a
// later append can never splice garbage after a torn record. If the
// truncate itself fails, the writer fails closed.
type walWriter struct {
	fs     FS
	path   string
	f      File
	off    int64 // offset just past the last fully appended+synced record
	noSync bool
}

func createWAL(fsys FS, path string, noSync bool) (*walWriter, error) {
	f, err := fsys.Create(path)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(append(walMagic[:], walVersion)); err != nil {
		_ = f.Close()
		return nil, err
	}
	if !noSync {
		if err := f.Sync(); err != nil {
			_ = f.Close()
			return nil, err
		}
		// The header is durable only once the file's directory entry is; a
		// WAL that vanishes with a crash would silently drop every record
		// appended to it.
		if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
			_ = f.Close()
			return nil, err
		}
	}
	return &walWriter{fs: fsys, path: path, f: f, off: 5, noSync: noSync}, nil
}

func openWALForAppend(fsys FS, path string, noSync bool) (*walWriter, error) {
	size, err := fsys.Stat(path)
	if err != nil {
		return nil, err
	}
	f, err := fsys.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &walWriter{fs: fsys, path: path, f: f, off: size, noSync: noSync}, nil
}

// append writes the records of one mutation call (each already carrying its
// CRC) in one write and syncs them once. On any failure the file is truncated
// back to the previous boundary before returning, so an error here means none
// of the records is (or will ever be) in the log — a batch is all or nothing;
// if even that claw-back fails, the writer fails closed and every later
// append returns errWALClosed.
func (w *walWriter) append(recs []byte) error {
	if w.f == nil {
		return errWALClosed
	}
	n, err := w.f.Write(recs)
	if err == nil && n < len(recs) {
		err = fmt.Errorf("segstore: WAL short write (%d of %d bytes)", n, len(recs))
	}
	if err == nil && !w.noSync {
		// A failed sync also claws back: the bytes are in the file but not
		// durable, and an unacknowledged mutation must not resurface on the
		// next replay.
		err = w.f.Sync()
	}
	if err != nil {
		if terr := w.fs.Truncate(w.path, w.off); terr != nil {
			_ = w.f.Close()
			w.f = nil
			return fmt.Errorf("%w (and truncating back failed: %v)", err, terr)
		}
		return err
	}
	w.off += int64(len(recs))
	return nil
}

// failed reports whether the writer failed closed (append can never succeed
// again until the WAL is rewritten).
func (w *walWriter) failed() bool { return w == nil || w.f == nil }

func (w *walWriter) close() error {
	if w == nil || w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// appendAdd appends an 'A' record, CRC included: the id, the label-table
// splice (labels [prevLabels, labels) are the ones interned since the last
// record — the caller reads lt.Len() once: other goroutines may intern
// meanwhile), and the tree stream.
func appendAdd(dst []byte, id int64, lt *tree.LabelTable, prevLabels, labels int, t *tree.Tree) []byte {
	c := cw{b: append(dst, 'A')}
	c.u(uint64(id))
	c.u(uint64(prevLabels))
	c.u(uint64(labels - prevLabels))
	for i := prevLabels; i < labels; i++ {
		c.str(lt.Name(int32(i)))
	}
	writeTreeStream(&c, t)
	return appendRecordCRC(c.b, len(dst))
}

// appendRemove appends an 'R' record, CRC included.
func appendRemove(dst []byte, id int64) []byte {
	c := cw{b: append(dst, 'R')}
	c.u(uint64(id))
	return appendRecordCRC(c.b, len(dst))
}

// appendRecordCRC closes the record that started at b[start:].
func appendRecordCRC(b []byte, start int) []byte {
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b[start:]))
}

// walOp is one replayed operation.
type walOp struct {
	remove bool
	id     int64
	t      *tree.Tree // nil for removes
}

// replayWAL parses the WAL at path, splicing label deltas into lt and
// returning the operations of every whole, checksummed record. A torn or
// corrupt tail — a record that does not parse, fails its CRC, or splices
// labels inconsistently — truncates the file back to the last good record:
// everything before it was synced and applies, everything after never fully
// committed. The caller applies the ops idempotently against the manifest
// state (see Store replay rules).
func replayWAL(fsys FS, path string, lt *tree.LabelTable, noSync bool) ([]walOp, error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < 5 || !bytes.Equal(data[:4], walMagic[:]) || data[4] != walVersion {
		// An unrecognisable WAL is rebuilt empty: nothing can be recovered
		// from it, and the manifest alone is a consistent (if older) state.
		return nil, rewriteWALFile(fsys, path, nil, 0, noSync)
	}
	var ops []walOp
	pos := 5
	good := 5 // offset just past the last whole record
	for pos < len(data) {
		op, next, ok := parseRecord(data, pos, lt)
		if !ok {
			break
		}
		ops = append(ops, op)
		pos = next
		good = next
	}
	if good < len(data) {
		if err := fsys.Truncate(path, int64(good)); err != nil {
			return nil, err
		}
	}
	return ops, nil
}

// parseRecord decodes one record at data[pos:], returning the op and the
// offset past its CRC. ok is false for any truncation, corruption, CRC
// mismatch, or label-splice conflict. The CRC is verified before the record
// takes any effect, so a bad record never pollutes the label table.
func parseRecord(data []byte, pos int, lt *tree.LabelTable) (op walOp, next int, ok bool) {
	end, ok := recordEnd(data, pos)
	if !ok || end+4 > len(data) {
		return op, 0, false
	}
	want := binary.LittleEndian.Uint32(data[end : end+4])
	if crc32.ChecksumIEEE(data[pos:end]) != want {
		return op, 0, false
	}
	d := &sd{data: data[:end], pos: pos + 1} // past the kind byte recordEnd admitted
	op.id = int64(d.u(maxID, "id"))
	if data[pos] == 'R' {
		op.remove = true
	} else {
		prevLabels := d.u(maxLabels, "label base")
		nNew := d.u(maxLabels, "new label count")
		if d.err != nil || prevLabels > uint64(lt.Len()) {
			return op, 0, false
		}
		// Splice: labels the table already holds (a stale record whose
		// mutation a newer manifest committed) must match byte for byte;
		// genuinely new ones intern at exactly the recorded positions.
		for i := uint64(0); i < nNew; i++ {
			name := d.str(maxLabelLen, "label")
			if d.err != nil {
				return op, 0, false
			}
			idx := int32(prevLabels + i)
			if idx < int32(lt.Len()) {
				if lt.Name(idx) != name {
					return op, 0, false
				}
			} else if lt.Intern(name) != idx {
				return op, 0, false
			}
		}
		op.t = readTreeStream(d, lt, uint64(lt.Len()))
	}
	if d.finish() != nil {
		return op, 0, false
	}
	return op, end + 4, true
}

// recordEnd finds the byte offset just past a record's payload (where its
// CRC trailer starts) by structurally skipping it, with no side effects.
func recordEnd(data []byte, pos int) (int, bool) {
	d := &sd{data: data, pos: pos}
	kind := d.take(1, "record kind")
	if d.err != nil {
		return 0, false
	}
	d.u(maxID, "id")
	switch kind[0] {
	case 'A':
		d.u(maxLabels, "label base")
		nNew := d.u(maxLabels, "new label count")
		for i := uint64(0); i < nNew && d.err == nil; i++ {
			d.take(int(d.u(maxLabelLen, "label length")), "label")
		}
		n := d.u(maxTreeNodes, "tree size")
		for i := uint64(0); i < 2*n && d.err == nil; i++ {
			d.u(^uint64(0), "tree stream")
		}
	case 'R':
	default:
		return 0, false
	}
	return d.pos, d.err == nil
}

// rewriteWALFile atomically replaces the WAL with one holding exactly the
// given memtable as 'A' records; labelsLen stamps every record's prevLabels
// (their labels are already in the manifest's table, so the splice is empty).
// Called after a manifest commit — never before.
func rewriteWALFile(fsys FS, path string, mem []memEntry, labelsLen int, noSync bool) error {
	buf := append(walMagic[:len(walMagic):len(walMagic)], walVersion)
	for _, me := range mem {
		buf = appendAdd(buf, me.id, nil, labelsLen, labelsLen, me.blk.t)
	}
	return replaceFile(fsys, path, buf, noSync)
}

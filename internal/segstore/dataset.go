package segstore

import (
	"fmt"
	"io"
	"os"

	"treejoin/internal/tree"
)

// Dataset file (TJDS, version 1) — a tree collection and its label table, for
// storing and reloading a collection without re-parsing text. It is built of
// the same pieces as the store's files: the cw/sd frame, the manifest's label
// list and the segments' tree stream.
//
//	magic   "TJDS" (4 bytes), version byte
//	labelCount, then per label: byteLen, bytes
//	treeCount, then per tree: nodeCount, preorder (labelID, childCount) per node
//	crc32 IEEE LE (4 bytes)

var datasetMagic = [4]byte{'T', 'J', 'D', 'S'}

const datasetVersion = 1

// encodeDataset lays out the dataset file of lt and ts. Every tree must use
// lt as its label table.
func encodeDataset(lt *tree.LabelTable, ts []*tree.Tree) ([]byte, error) {
	size := 16 + 8*lt.Len()
	for i, t := range ts {
		if t.Labels != lt {
			return nil, fmt.Errorf("segstore: tree %d does not use the given label table", i)
		}
		size += 3*t.Size() + 2
	}
	c := newCW(make([]byte, 0, size), datasetMagic, datasetVersion)
	writeLabels(c, lt, lt.Len())
	c.u(uint64(len(ts)))
	for _, t := range ts {
		writeTreeStream(c, t)
	}
	return c.finish(), nil
}

// decodeDataset parses a dataset file image into a fresh label table and its
// trees; the bulk CRC is verified before parsing.
func decodeDataset(data []byte) (*tree.LabelTable, []*tree.Tree, error) {
	d := newSD(data, datasetMagic, datasetVersion, "dataset")
	lt := readLabels(d)
	nTrees := d.u(maxTrees, "tree count")
	if d.err != nil {
		return nil, nil, d.err
	}
	ts := make([]*tree.Tree, 0, min(nTrees, 1<<16))
	for i := uint64(0); i < nTrees; i++ {
		ts = append(ts, readTreeStream(d, lt, uint64(lt.Len())))
		if d.err != nil {
			return nil, nil, d.err
		}
	}
	if err := d.finish(); err != nil {
		return nil, nil, err
	}
	return lt, ts, nil
}

// WriteDataset writes the dataset file of lt and ts to w. Every tree must use
// lt as its label table; nothing is written if one does not.
func WriteDataset(w io.Writer, lt *tree.LabelTable, ts []*tree.Tree) error {
	data, err := encodeDataset(lt, ts)
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		return fmt.Errorf("segstore: writing dataset: %w", err)
	}
	return nil
}

// ReadDataset reads r to its end and decodes the dataset file it holds.
func ReadDataset(r io.Reader) (*tree.LabelTable, []*tree.Tree, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, fmt.Errorf("segstore: reading dataset: %w", err)
	}
	return decodeDataset(data)
}

// WriteDatasetFile replaces path with the dataset file of lt and ts: the
// whole image is encoded first, then written to a temporary file that is
// synced and renamed over path, so a rejected or failed write leaves any
// earlier file at path as it was.
func WriteDatasetFile(path string, lt *tree.LabelTable, ts []*tree.Tree) error {
	data, err := encodeDataset(lt, ts)
	if err != nil {
		return err
	}
	if err := replaceFile(osFS{}, path, data, false); err != nil {
		return fmt.Errorf("segstore: writing dataset: %w", err)
	}
	return nil
}

// ReadDatasetFile decodes the dataset file at path.
func ReadDatasetFile(path string) (*tree.LabelTable, []*tree.Tree, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("segstore: reading dataset: %w", err)
	}
	return decodeDataset(data)
}

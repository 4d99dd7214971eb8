package segstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"slices"
	"sort"

	"treejoin/internal/engine"
	"treejoin/internal/ted"
	"treejoin/internal/tree"
)

// Segment file (TJSG, version 1). All integers unsigned varints unless
// noted; everything after the magic feeds the trailing CRC:
//
//	magic    "TJSG" (4 bytes), version byte
//	labelLimit — the label-table length at write time; block labels are < it
//	blockCount, then per block:
//	    nodeCount, preorder (labelID, childCount) per node,
//	    costL, costR — the strategy costs of the arena view,
//	    cellCount (must equal 9n + 4·leaves), cells as int32 LE,
//	    sha256 content address (32 bytes) over the canonical block form
//	entryCount, then per entry: id (delta, first absolute; strictly
//	    ascending), blockIdx
//	kindCount, then per kind in ascending name order:
//	    name, tokenCount, then per token in ascending key order:
//	        key (delta, first absolute), postingCount, then per posting in
//	        ascending block order: blockIdx (delta, first absolute), count
//	crc32 IEEE LE (4 bytes)
//
// Blocks are the distinct tree contents; entries map corpus ids onto them
// (several entries may share a block — that is the dedup). The token section
// is the inverted form of the per-block bags: reading it back in ascending
// key order reconstructs every block's bag already sorted. A kind appears
// only when it covers every block of the segment, so presence means a
// reopened corpus re-tokenises nothing for it.
//
// The per-block sha256 is the content address: computed at write time over
// the canonical form (preorder stream, costs, cells), it is what makes dedup
// sound — equal addresses mean equal content, short of a sha256 collision.
// Integrity on the read path comes from the file-wide CRC trailer (verified
// in one bulk pass before parsing), which covers the stored addresses too,
// so the decoder trusts them instead of re-hashing every block; the cells
// additionally pass ted.ViewFromCells' structural validation before any
// kernel touches them. (TestSegmentGolden re-derives the addresses, pinning
// the hash function itself.)

var segMagic = [4]byte{'T', 'J', 'S', 'G'}

const segVersion = 1

// block is one distinct tree content: the decoded tree, its arena view, its
// content address, and the per-kind token bags persisted with it. Blocks are
// shared — across entries of a segment, across segments (the store keeps one
// canonical block per hash), and with the corpus cache.
type block struct {
	hash [32]byte
	t    *tree.Tree
	view *ted.TreeView
	bags map[string][]engine.BagEntry // kind → sorted entries; presence = persisted
}

// segEntry maps one corpus id onto a block of its segment.
type segEntry struct {
	id  int64
	blk int32
}

// blockEnc appends blocks in their canonical form — the preorder (label,
// childCount) stream, the strategy costs, and the arena cells — which is both
// what a segment stores per block and what the content address hashes.
// BuildViews is deterministic, so the address is a pure function of the tree
// content (equal trees collide, unequal trees do not, short of a sha256
// collision), and covering the cells makes the address double as the block's
// integrity check. The scratch slices are reused from call to call.
type blockEnc struct {
	form  cw
	cells []int32
}

func (e *blockEnc) appendForm(c *cw, t *tree.Tree, v *ted.TreeView) {
	writeTreeStream(c, t)
	c.u(uint64(v.CostL))
	c.u(uint64(v.CostR))
	e.cells = ted.AppendViewCells(e.cells[:0], v)
	c.u(uint64(len(e.cells)))
	b := slices.Grow(c.b, 4*len(e.cells))
	for _, cell := range e.cells {
		b = binary.LittleEndian.AppendUint32(b, uint32(cell))
	}
	c.b = b
}

// newBlock builds the block of one tree and its view: the canonical form is
// laid out once and hashed in one call.
func (e *blockEnc) newBlock(t *tree.Tree, v *ted.TreeView) *block {
	e.form.b = e.form.b[:0]
	e.appendForm(&e.form, t, v)
	return &block{hash: sha256.Sum256(e.form.b), t: t, view: v}
}

// writeTreeStream encodes t's preorder (label, childCount) stream — the
// canonical tree encoding shared by segments, the WAL, and the content hash —
// walking the parent and sibling links, so it allocates nothing.
func writeTreeStream(c *cw, t *tree.Tree) {
	b := binary.AppendUvarint(c.b, uint64(t.Size()))
	for n := t.Root(); n != tree.None; {
		nd := &t.Nodes[n]
		var fan uint64
		for ch := nd.FirstChild; ch != tree.None; ch = t.Nodes[ch].NextSibling {
			fan++
		}
		b = binary.AppendUvarint(binary.AppendUvarint(b, uint64(nd.Label)), fan)
		if nd.FirstChild != tree.None {
			n = nd.FirstChild
			continue
		}
		for n != tree.None && t.Nodes[n].NextSibling == tree.None {
			n = t.Nodes[n].Parent
		}
		if n != tree.None {
			n = t.Nodes[n].NextSibling
		}
	}
	c.b = b
}

// readTreeStream reconstructs one tree from its preorder stream, exactly the
// dataset package's stack pass: labels must be interned below labelLimit.
func readTreeStream(d *sd, lt *tree.LabelTable, labelLimit uint64) *tree.Tree {
	n := d.u(maxTreeNodes, "tree size")
	if d.err != nil {
		return nil
	}
	if n == 0 {
		d.bad("empty tree")
		return nil
	}
	b := tree.NewBuilder(lt)
	type frame struct {
		id      int32
		pending uint64
	}
	var stack []frame
	for i := uint64(0); i < n; i++ {
		label := d.u(labelLimit, "label id")
		fan := d.u(n, "child count")
		if d.err != nil {
			return nil
		}
		if label >= labelLimit {
			d.bad("node %d: label id %d out of range", i, label)
			return nil
		}
		var id int32
		if len(stack) == 0 {
			if i != 0 {
				d.bad("node %d after the root completed", i)
				return nil
			}
			id = b.RootID(int32(label))
		} else {
			top := &stack[len(stack)-1]
			id = b.ChildID(top.id, int32(label))
			top.pending--
		}
		if fan > 0 {
			stack = append(stack, frame{id: id, pending: fan})
		}
		for len(stack) > 0 && stack[len(stack)-1].pending == 0 {
			stack = stack[:len(stack)-1]
		}
	}
	if len(stack) != 0 {
		d.bad("%d nodes missing", len(stack))
		return nil
	}
	t, err := b.Build()
	if err != nil {
		d.bad("invalid tree: %v", err)
		return nil
	}
	return t
}

// encodeSegment writes the segment of (blocks, entries) to w. bags maps each
// persisted kind to one bag per block (index-aligned with blocks); only
// kinds covering every block belong here. Deterministic: byte-identical
// output for identical logical content, which is what pins content
// addresses and makes the golden test meaningful.
func encodeSegment(w *bytes.Buffer, lt *tree.LabelTable, blocks []*block, entries []segEntry, bags map[string][][]engine.BagEntry) error {
	size := 64 + 4*len(entries)
	for _, b := range blocks {
		size += 13*4*b.t.Size() + 64 // ≤ 13 cells a node, plus stream, costs, address
	}
	w.Grow(size)
	c := newCW(w.AvailableBuffer(), segMagic, segVersion)
	c.u(uint64(lt.Len()))
	c.u(uint64(len(blocks)))
	var enc blockEnc
	for _, b := range blocks {
		enc.appendForm(c, b.t, b.view)
		c.raw(b.hash[:])
	}
	c.u(uint64(len(entries)))
	prev := int64(0)
	for _, e := range entries {
		c.u(uint64(e.id - prev)) // the first id is absolute
		prev = e.id
		c.u(uint64(e.blk))
	}
	kinds := make([]string, 0, len(bags))
	for k := range bags {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	c.u(uint64(len(kinds)))
	// Invert the per-block bags into token postings: flat (key, block, count)
	// triples in block order, stably sorted by key.
	var posts, scratch []post
	for _, kind := range kinds {
		n := 0
		for _, bag := range bags[kind] {
			n += len(bag)
		}
		posts, scratch = slices.Grow(posts[:0], n), slices.Grow(scratch[:0], n)
		for bi, bag := range bags[kind] {
			for _, e := range bag {
				posts = append(posts, post{key: e.Key, blk: int32(bi), count: e.Count})
			}
		}
		posts, scratch = sortPosts(posts, scratch[:n])
		nKeys := 0
		for i := range posts {
			if i == 0 || posts[i].key != posts[i-1].key {
				nKeys++
			}
		}
		c.str(kind)
		c.u(uint64(nKeys))
		prevKey := uint64(0)
		for i := 0; i < len(posts); {
			j := i + 1
			for j < len(posts) && posts[j].key == posts[i].key {
				j++
			}
			c.u(posts[i].key - prevKey) // the first key is absolute
			prevKey = posts[i].key
			c.u(uint64(j - i))
			prevBlk := int32(0)
			for _, p := range posts[i:j] {
				c.u(uint64(p.blk - prevBlk)) // the first block is absolute
				prevBlk = p.blk
				c.u(uint64(p.count))
			}
			i = j
		}
	}
	_, err := w.Write(c.finish())
	return err
}

// post is one posting of the token section under construction.
type post struct {
	key        uint64
	blk, count int32
}

// sortPosts sorts ps by key — a byte-wise radix sort through tmp, stable, so
// the postings of one key stay in block order — and returns the sorted slice
// and the other one.
func sortPosts(ps, tmp []post) (sorted, other []post) {
	var counts [8][256]int
	for _, p := range ps {
		for d := range counts {
			counts[d][byte(p.key>>(8*d))]++
		}
	}
	for d := range counts {
		c := &counts[d]
		if len(ps) == 0 || c[byte(ps[0].key>>(8*d))] == len(ps) {
			continue // every key has the same byte here
		}
		sum := 0
		for i, n := range c {
			c[i], sum = sum, sum+n
		}
		for _, p := range ps {
			b := byte(p.key >> (8 * d))
			tmp[c[b]] = p
			c[b]++
		}
		ps, tmp = tmp, ps
	}
	return ps, tmp
}

// writeSegmentFile encodes to path and (unless noSync) fsyncs, returning the
// file's size. The file becomes live only when a manifest referencing it
// commits; a crash before that leaves an orphan the next open removes.
func writeSegmentFile(fsys FS, path string, lt *tree.LabelTable, blocks []*block, entries []segEntry, bags map[string][][]engine.BagEntry, noSync bool) (int, error) {
	var buf bytes.Buffer
	if err := encodeSegment(&buf, lt, blocks, entries, bags); err != nil {
		return 0, err
	}
	return buf.Len(), writeFile(fsys, path, buf.Bytes(), noSync)
}

// decodeSegment parses a segment from data. Labels must already be interned
// in lt (the manifest's table is decoded first); the bulk CRC is verified
// before parsing and every block's cells pass structural validation, so a
// returned block is safe for the verification kernel. Stored content
// addresses are trusted under the CRC (see the format comment); Scrub is the
// path that re-derives them.
func decodeSegment(data []byte, lt *tree.LabelTable) (blocks []*block, entries []segEntry, err error) {
	d := newSD(data, segMagic, segVersion, "segment")
	labelLimit := d.u(maxLabels, "label limit")
	if d.err == nil && labelLimit > uint64(lt.Len()) {
		d.bad("label limit %d exceeds table %d", labelLimit, lt.Len())
	}
	nBlocks := d.u(maxBlocks, "block count")
	if d.err != nil {
		return nil, nil, d.err
	}
	blocks = make([]*block, 0, min64(nBlocks, 1<<14))
	var hash [32]byte
	for bi := uint64(0); bi < nBlocks; bi++ {
		t := readTreeStream(d, lt, labelLimit)
		costL := d.u(maxCost, "left cost")
		costR := d.u(maxCost, "right cost")
		nCells := d.u(maxTreeNodes*13, "cell count")
		if d.err != nil {
			return nil, nil, d.err
		}
		if want := ted.ViewCellCount(t.Size(), ted.Leaves(t)); nCells != uint64(want) {
			return nil, nil, corruptf("block %d: %d cells, want %d", bi, nCells, want)
		}
		raw := d.take(int(nCells)*4, "cells")
		copy(hash[:], d.take(32, "block hash"))
		if d.err != nil {
			return nil, nil, d.err
		}
		cells := make([]int32, nCells)
		for i := range cells {
			cells[i] = int32(binary.LittleEndian.Uint32(raw[i*4:]))
		}
		v, verr := ted.ViewFromCells(t, cells, int64(costL), int64(costR))
		if verr != nil {
			return nil, nil, corruptf("block %d: %v", bi, verr)
		}
		blocks = append(blocks, &block{hash: hash, t: t, view: v})
	}
	nEntries := d.u(maxEntries, "entry count")
	if d.err != nil {
		return nil, nil, d.err
	}
	entries = make([]segEntry, 0, min64(nEntries, 1<<16))
	prev := int64(-1)
	for i := uint64(0); i < nEntries; i++ {
		var id int64
		if i == 0 {
			id = int64(d.u(maxID, "entry id"))
		} else {
			id = prev + int64(d.u(maxID, "entry id delta"))
		}
		blk := d.u(nBlocks, "entry block")
		if d.err != nil {
			return nil, nil, d.err
		}
		if id <= prev {
			return nil, nil, corruptf("entry %d: id %d not ascending", i, id)
		}
		if blk >= nBlocks {
			return nil, nil, corruptf("entry %d: block %d out of range", i, blk)
		}
		prev = id
		entries = append(entries, segEntry{id: id, blk: int32(blk)})
	}
	nKinds := d.u(maxKinds, "kind count")
	if d.err != nil {
		return nil, nil, d.err
	}
	prevKind := ""
	for ki := uint64(0); ki < nKinds; ki++ {
		kind := d.str(maxKindLen, "kind name")
		if d.err != nil {
			return nil, nil, d.err
		}
		if ki > 0 && kind <= prevKind {
			return nil, nil, corruptf("kind %q not ascending", kind)
		}
		prevKind = kind
		perBlock := make([][]engine.BagEntry, len(blocks))
		nTokens := d.u(maxTokens, "token count")
		if d.err != nil {
			return nil, nil, d.err
		}
		prevKey := uint64(0)
		for ti := uint64(0); ti < nTokens; ti++ {
			var key uint64
			if ti == 0 {
				key = d.u(^uint64(0), "token key")
			} else {
				delta := d.u(^uint64(0), "token key delta")
				if d.err == nil && delta == 0 {
					return nil, nil, corruptf("kind %q: token keys not ascending", kind)
				}
				key = prevKey + delta
				if key < prevKey {
					return nil, nil, corruptf("kind %q: token key overflow", kind)
				}
			}
			prevKey = key
			nPost := d.u(nBlocks, "posting count")
			if d.err != nil {
				return nil, nil, d.err
			}
			prevBlk := int64(-1)
			for pi := uint64(0); pi < nPost; pi++ {
				var blk int64
				if pi == 0 {
					blk = int64(d.u(nBlocks, "posting block"))
				} else {
					blk = prevBlk + int64(d.u(nBlocks, "posting block delta"))
				}
				count := d.u(1<<31, "posting token count")
				if d.err != nil {
					return nil, nil, d.err
				}
				if blk <= prevBlk || blk >= int64(len(blocks)) {
					return nil, nil, corruptf("kind %q: posting block %d invalid", kind, blk)
				}
				if count == 0 {
					return nil, nil, corruptf("kind %q: zero posting count", kind)
				}
				prevBlk = blk
				perBlock[blk] = append(perBlock[blk], engine.BagEntry{Key: key, Count: int32(count)})
			}
		}
		// Tokens iterate in ascending key order, so every reconstructed bag
		// is already sorted — the BagEntry invariant a seeded cache trusts.
		for bi, b := range blocks {
			if b.bags == nil {
				b.bags = make(map[string][]engine.BagEntry, int(nKinds))
			}
			b.bags[kind] = perBlock[bi]
		}
	}
	if err := d.finish(); err != nil {
		return nil, nil, err
	}
	return blocks, entries, nil
}

// readSegmentFile maps path (mmap on linux) and decodes it.
func readSegmentFile(fsys FS, path string, lt *tree.LabelTable) ([]*block, []segEntry, error) {
	data, done, err := fsys.MapFile(path)
	if err != nil {
		return nil, nil, err
	}
	defer done()
	return decodeSegment(data, lt)
}

func min64(a uint64, b int) int {
	if a < uint64(b) {
		return int(a)
	}
	return b
}

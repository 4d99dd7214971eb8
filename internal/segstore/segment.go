package segstore

import (
	"crypto/sha256"
	"encoding/binary"

	"treejoin/internal/tree"
)

// Segment file (TJSG, version 2). All integers unsigned varints unless
// noted; everything after the magic feeds the trailing CRC:
//
//	magic    "TJSG" (4 bytes), version byte
//	labelLimit — the label-table length at write time; block labels are < it
//	blockCount, then per block:
//	    nodeCount, preorder (labelID, childCount) per node,
//	    sha256 (32 bytes) of those stream bytes — the content address
//	entryCount, then per entry: id (delta, first absolute; strictly
//	    ascending), blockIdx
//	crc32 IEEE LE (4 bytes)
//
// Blocks are the distinct tree contents; entries map corpus ids onto them
// (several entries may share a block — that is the dedup). A segment holds
// the trees and their membership and nothing derived from them: views, token
// bags and partitions come from the corpus's artifact cache, built by the
// first query that wants them, exactly as for a corpus that was never stored.
//
// The content address is what makes dedup sound: label ids are stable within
// a store and the encoder is deterministic, so equal addresses mean equal
// trees, short of a sha256 collision. Integrity on the read path comes from
// the file-wide CRC trailer (verified in one bulk pass before parsing), which
// covers the stored addresses too, so the decoder trusts them instead of
// re-hashing every block; Scrub is the path that re-derives them.
//
// Version 1 is still read, never written. Its blocks carry, between the
// stream and the address, the strategy costs and the length-prefixed cells of
// an arena view, its address covers stream, costs and cells together, and a
// token-postings section follows the entry list. The decoder steps over all
// of that and addresses a v1 block by hashing the stream bytes it just
// parsed — the v2 address — so blocks of either version dedup together. A
// directory becomes all-v2 at its next compaction.

var segMagic = [4]byte{'T', 'J', 'S', 'G'}

const segVersion = 2

// block is one distinct tree content and its content address. Blocks are
// shared — across entries of a segment, across segments (the store keeps one
// canonical block per address), and with the corpus, which holds the trees.
type block struct {
	hash [32]byte
	t    *tree.Tree
}

// segEntry maps one corpus id onto a block of its segment.
type segEntry struct {
	id  int64
	blk int32
}

// newBlock builds the block of one tree: its preorder stream is laid out in
// scratch (reused from call to call) and hashed.
func newBlock(scratch *cw, t *tree.Tree) *block {
	scratch.b = scratch.b[:0]
	writeTreeStream(scratch, t)
	return &block{hash: sha256.Sum256(scratch.b), t: t}
}

// writeTreeStream encodes t's preorder (label, childCount) stream — the
// canonical tree encoding shared by segments, the WAL, the dataset file and
// the content hash — walking the parent and sibling links, so it allocates
// nothing.
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

// readTreeStream reconstructs one tree from its preorder stream — the one
// decoder of that stream, for segments, the WAL and the dataset file — in a
// single stack pass: labels must be interned below labelLimit. The nodes are
// sized from the stream's count, capped by the bytes left (a node takes at
// least two), so a hostile count allocates no more than the image could hold;
// the stack is d's, reused by every tree of one image.
func readTreeStream(d *sd, lt *tree.LabelTable, labelLimit uint64) *tree.Tree {
	n := d.u(maxTreeNodes, "tree size")
	if d.err != nil {
		return nil
	}
	if n == 0 {
		d.bad("empty tree")
		return nil
	}
	nodes := make([]tree.Node, 0, min(n, uint64(len(d.data)-d.pos)/2))
	stack := d.stack[:0]
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
		id := int32(len(nodes))
		node := tree.Node{Label: int32(label), Parent: tree.None, FirstChild: tree.None, NextSibling: tree.None}
		if len(stack) == 0 {
			if i != 0 {
				d.bad("node %d after the root completed", i)
				return nil
			}
		} else {
			top := &stack[len(stack)-1]
			node.Parent = top.id
			if top.last == tree.None {
				nodes[top.id].FirstChild = id
			} else {
				nodes[top.last].NextSibling = id
			}
			top.last = id
			top.pending--
		}
		nodes = append(nodes, node)
		if fan > 0 {
			stack = append(stack, streamFrame{id: id, last: tree.None, pending: fan})
		}
		for len(stack) > 0 && stack[len(stack)-1].pending == 0 {
			stack = stack[:len(stack)-1]
		}
	}
	if d.stack = stack; len(stack) != 0 {
		d.bad("%d nodes missing", len(stack))
		return nil
	}
	return &tree.Tree{Labels: lt, Nodes: nodes}
}

// encodeSegment lays out the segment of (blocks, entries). Deterministic:
// byte-identical output for identical logical content, which is what makes
// the golden test meaningful.
func encodeSegment(lt *tree.LabelTable, blocks []*block, entries []segEntry) []byte {
	size := 64 + 4*len(entries)
	for _, b := range blocks {
		size += 3*b.t.Size() + 40
	}
	c := newCW(make([]byte, 0, size), segMagic, segVersion)
	c.u(uint64(lt.Len()))
	c.u(uint64(len(blocks)))
	for _, b := range blocks {
		writeTreeStream(c, b.t)
		c.raw(b.hash[:])
	}
	c.u(uint64(len(entries)))
	prev := int64(0)
	for _, e := range entries {
		c.u(uint64(e.id - prev)) // the first id is absolute
		prev = e.id
		c.u(uint64(e.blk))
	}
	return c.finish()
}

// decodeSegment parses a segment of either version from data. Labels must
// already be interned in lt (the manifest's table is decoded first); the bulk
// CRC is verified before parsing. Every block comes back under its v2 address:
// the stored one, trusted under the CRC, on a v2 file; the hash of the stream
// bytes on a v1 file, whose own stored addresses are returned in v1 (nil on a
// v2 file) for Scrub to check.
func decodeSegment(data []byte, lt *tree.LabelTable) (blocks []*block, v1 [][32]byte, entries []segEntry, err error) {
	d := newSD(data, segMagic, segVersion, "segment")
	labelLimit := d.u(maxLabels, "label limit")
	if d.err == nil && labelLimit > uint64(lt.Len()) {
		d.bad("label limit %d exceeds table %d", labelLimit, lt.Len())
	}
	nBlocks := d.u(maxBlocks, "block count")
	if d.err != nil {
		return nil, nil, nil, d.err
	}
	blocks = make([]*block, 0, min(nBlocks, 1<<14))
	for bi := uint64(0); bi < nBlocks; bi++ {
		start := d.pos
		b := &block{t: readTreeStream(d, lt, labelLimit)}
		if d.err != nil {
			return nil, nil, nil, d.err
		}
		if d.version == 1 {
			b.hash = sha256.Sum256(d.data[start:d.pos])
			d.u(maxCost, "left cost")
			d.u(maxCost, "right cost")
			d.take(4*int(d.u(13*maxTreeNodes, "cell count")), "cells")
		}
		stored := d.take(32, "block address")
		if d.err != nil {
			return nil, nil, nil, d.err
		}
		if d.version == 1 {
			v1 = append(v1, [32]byte(stored))
		} else {
			b.hash = [32]byte(stored)
		}
		blocks = append(blocks, b)
	}
	nEntries := d.u(maxEntries, "entry count")
	if d.err != nil {
		return nil, nil, nil, d.err
	}
	entries = make([]segEntry, 0, min(nEntries, 1<<16))
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
			return nil, nil, nil, d.err
		}
		if id <= prev {
			return nil, nil, nil, corruptf("entry %d: id %d not ascending", i, id)
		}
		if blk >= nBlocks {
			return nil, nil, nil, corruptf("entry %d: block %d out of range", i, blk)
		}
		prev = id
		entries = append(entries, segEntry{id: id, blk: int32(blk)})
	}
	if d.version == 1 {
		d.pos = len(d.data) // the token postings, under the CRC already verified
	}
	if err := d.finish(); err != nil {
		return nil, nil, nil, err
	}
	return blocks, v1, entries, nil
}

// readSegmentFile reads path whole and decodes it.
func readSegmentFile(fsys FS, path string, lt *tree.LabelTable) ([]*block, [][32]byte, []segEntry, error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, nil, nil, err
	}
	return decodeSegment(data, lt)
}

package segstore

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"treejoin/internal/engine"
	"treejoin/internal/ted"
	"treejoin/internal/tree"
)

// Options tunes a store. The zero value means defaults.
type Options struct {
	// MemtableBudget is the tree count at which the memtable flushes into a
	// new segment (default 512).
	MemtableBudget int
	// CompactMinDead is the tombstone floor of the compaction trigger
	// (default 64): a merge runs only when at least this many entries are
	// dead AND the dead outnumber the live — the token index's compaction
	// rule lifted to segments.
	CompactMinDead int
	// NoBackground runs every triggered compaction synchronously inside the
	// mutating call instead of on the compactor goroutine, and disables the
	// degraded-mode retry goroutine — Flush and Compact then double as the
	// synchronous recovery hooks (tests).
	NoBackground bool
	// NoSync skips fsyncs. Throughput for tests that never crash; never set
	// it when durability matters.
	NoSync bool
	// FS overrides the filesystem the store talks to; nil means the real
	// one. Tests inject fault-raising filesystems here.
	FS FS
	// Salvage makes Open quarantine segment files that fail their integrity
	// checks (renamed to *.quarantine, dropped from the manifest) and open
	// the surviving corpus instead of refusing entirely. The quarantined
	// set is reported by SalvageReport. Only whole corrupt segments are set
	// aside; every readable live tree is kept.
	Salvage bool

	// retryBase/retryMax bound the degraded-mode retry backoff (exponential
	// with jitter); zero means the defaults (50ms / 5s). In-package tests
	// shrink them.
	retryBase time.Duration
	retryMax  time.Duration
	// retryJitter draws the random half of a degraded-mode retry delay: a
	// value in [0, max]. Nil means the default source, the process-wide
	// locked RNG (safe however many stores retry concurrently). In-package
	// fault-sweep tests pin it to make backoff schedules deterministic;
	// under NoBackground the retry loop never runs, so jitter never fires.
	retryJitter func(max time.Duration) time.Duration
}

func (o Options) withDefaults() Options {
	if o.MemtableBudget <= 0 {
		o.MemtableBudget = 512
	}
	if o.CompactMinDead <= 0 {
		o.CompactMinDead = 64
	}
	if o.FS == nil {
		o.FS = osFS{}
	}
	if o.retryBase <= 0 {
		o.retryBase = 50 * time.Millisecond
	}
	if o.retryMax <= 0 {
		o.retryMax = 5 * time.Second
	}
	if o.retryJitter == nil {
		o.retryJitter = defaultRetryJitter
	}
	return o
}

// Stats is a snapshot of a store's lifecycle counters.
type Stats struct {
	Segments        int   // segment files currently live
	SegmentsOpened  int64 // segment files decoded since Open/Create
	MemtableTrees   int   // trees in the WAL-backed memtable
	TombstonedTrees int   // dead entries awaiting compaction
	CompactionRuns  int64 // merges performed
	FlushRuns       int64 // memtable → segment flushes
	LiveTrees       int   // live entries (segments + memtable)
	Blocks          int   // distinct tree contents across live segments
	Entries         int   // total segment entries, dead included

	Degraded            bool   // store is read-only pending recovery
	DegradedReason      string // the I/O failure that degraded it ("" when healthy)
	RecoveryAttempts    int64  // degraded-mode recovery attempts (successful or not)
	QuarantinedSegments int    // segments Open(Salvage) set aside
}

// Artifacts supplies per-tree artifacts from the owning corpus's cache, so
// views and token bags are computed once and shared between joins and
// segment writes. Views must return one arena view per tree; Bags reports
// ok=false when a kind cannot be produced for every tree (such kinds are
// simply not persisted).
type Artifacts interface {
	Views(ts []*tree.Tree) []*ted.TreeView
	BagKinds() []string
	Bags(kind string, ts []*tree.Tree) ([][]engine.BagEntry, bool)
}

// LiveTree is one live corpus entry as the store surfaces it: duplicates
// share the Tree, View, and Bags of their canonical block.
type LiveTree struct {
	ID   int64
	Tree *tree.Tree
	View *ted.TreeView
	Bags map[string][]engine.BagEntry
}

// memEntry is one memtable tree.
type memEntry struct {
	id  int64
	blk *block
}

// liveSeg is one open segment: its decoded blocks (canonicalised against the
// store's dedup map), entries, and tombstone state.
type liveSeg struct {
	name    string
	blocks  []*block
	entries []segEntry
	dead    []bool
	nDead   int
}

// loc addresses one live id: a segment entry (seg ≥ 0) or a memtable slot
// (seg == -1).
type loc struct {
	seg int
	pos int
}

// Store is a persistent corpus directory. All methods are safe for
// concurrent use; mutations serialise on one mutex (the corpus layer
// additionally serialises its own writers).
type Store struct {
	dir string
	opt Options
	fs  FS

	mu        sync.Mutex
	lt        *tree.LabelTable
	arts      Artifacts
	segs      []*liveSeg
	mem       []memEntry
	byID      map[int64]loc
	segIDs    map[int64]bool // every segment entry id, dead included (replay skips)
	byHash    map[[32]byte]*block
	nextID    int64
	wal       *walWriter
	walLabels int // labels the last WAL record or manifest made durable: a prefix of lt
	segSeq    int
	closed    bool
	dirty     bool // manifest on disk lags in-memory tombstones

	// Degraded mode: a failed flush, commit, or compaction leaves the
	// committed on-disk state untouched and flips the store read-only until
	// a recovery commit succeeds (see degraded.go).
	degraded    bool
	degradedErr error
	recoveries  int64
	quarantined []QuarantinedSegment

	segsOpened int64
	compacts   int64
	flushes    int64

	compactCh chan struct{}
	recoverCh chan struct{}
	stopCh    chan struct{}
	wg        sync.WaitGroup
}

// Create initialises an empty store in dir (created if missing; must not
// already hold a store). lt becomes the store's label table — the corpus
// and the store share it; nil starts an empty one.
func Create(dir string, lt *tree.LabelTable, opt Options) (*Store, error) {
	opt = opt.withDefaults()
	fsys := opt.FS
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, err
	}
	if _, err := fsys.Stat(filepath.Join(dir, manifestName)); err == nil {
		return nil, fmt.Errorf("segstore: %s already holds a store", dir)
	}
	if lt == nil {
		lt = tree.NewLabelTable()
	}
	s := &Store{
		dir:    dir,
		opt:    opt,
		fs:     fsys,
		lt:     lt,
		byID:   make(map[int64]loc),
		segIDs: make(map[int64]bool),
		byHash: make(map[[32]byte]*block),
	}
	if err := s.writeManifestLocked(); err != nil {
		return nil, err
	}
	wal, err := createWAL(fsys, filepath.Join(dir, walName), s.opt.NoSync)
	if err != nil {
		return nil, err
	}
	s.wal = wal
	s.walLabels = lt.Len()
	s.startBackground()
	return s, nil
}

// Open loads the store in dir: manifest, segments (mmap-decoded, content
// addresses verified), WAL replay, orphan cleanup. With Options.Salvage,
// segments that fail integrity checks are quarantined instead of failing the
// open (see Options.Salvage and SalvageReport).
func Open(dir string, opt Options) (*Store, error) {
	opt = opt.withDefaults()
	fsys := opt.FS
	m, err := readManifest(fsys, filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	s := &Store{
		dir:    dir,
		opt:    opt,
		fs:     fsys,
		lt:     m.lt,
		byID:   make(map[int64]loc),
		segIDs: make(map[int64]bool),
		byHash: make(map[[32]byte]*block),
		nextID: m.nextID,
	}
	maxSeq, err := cleanOrphans(fsys, dir, m)
	if err != nil {
		return nil, err
	}
	s.segSeq = maxSeq + 1
	prevID := int64(-1)
	var pending []*QuarantinedSegment // quarantined, awaiting an id upper bound
	for _, ms := range m.segs {
		seg, err := s.loadSegment(ms, prevID)
		if err != nil {
			if !opt.Salvage {
				return nil, fmt.Errorf("%s: %w", ms.name, err)
			}
			q := s.quarantineSegment(ms, prevID, err)
			pending = append(pending, q)
			continue
		}
		// Canonicalise blocks against the cross-segment dedup map: equal
		// content addresses collapse to one in-memory block, merging any
		// bag kinds the duplicates carry.
		for i, b := range seg.blocks {
			if canon, ok := s.byHash[b.hash]; ok {
				for kind, bag := range b.bags {
					if _, have := canon.bags[kind]; !have {
						if canon.bags == nil {
							canon.bags = make(map[string][]engine.BagEntry, len(b.bags))
						}
						canon.bags[kind] = bag
					}
				}
				seg.blocks[i] = canon
			} else {
				s.byHash[b.hash] = b
			}
		}
		if len(seg.entries) > 0 {
			for _, q := range pending {
				q.IDBefore = seg.entries[0].id
			}
			pending = nil
		}
		for pos, e := range seg.entries {
			prevID = e.id
			s.segIDs[e.id] = true
			if !seg.dead[pos] {
				s.byID[e.id] = loc{seg: len(s.segs), pos: pos}
			}
			if e.id >= s.nextID {
				s.nextID = e.id + 1
			}
		}
		s.segs = append(s.segs, seg)
		s.segsOpened++
	}
	if err := s.replayLocked(); err != nil {
		return nil, err
	}
	if len(s.quarantined) > 0 {
		// Commit the salvage: a manifest without the quarantined segments,
		// so the next open does not trip over them again.
		if err := s.writeManifestLocked(); err != nil {
			return nil, fmt.Errorf("segstore: committing salvage: %w", err)
		}
	}
	s.walLabels = s.lt.Len()
	wal, err := openWALForAppend(fsys, filepath.Join(dir, walName), s.opt.NoSync)
	if err != nil {
		return nil, err
	}
	s.wal = wal
	s.startBackground()
	return s, nil
}

// loadSegment reads and validates one manifest-listed segment without
// touching store state: the decode (bulk CRC, structural checks, arena-view
// validation), the manifest's entry count, and id ascension past prevID.
func (s *Store) loadSegment(ms manifestSeg, prevID int64) (*liveSeg, error) {
	blocks, entries, err := readSegmentFile(s.fs, filepath.Join(s.dir, ms.name), s.lt)
	if err != nil {
		return nil, err
	}
	if len(entries) != ms.nEntries {
		return nil, corruptf("%d entries, manifest says %d", len(entries), ms.nEntries)
	}
	p := prevID
	for _, e := range entries {
		if e.id <= p {
			return nil, corruptf("entry id %d not ascending across segments", e.id)
		}
		p = e.id
	}
	seg := &liveSeg{name: ms.name, blocks: blocks, entries: entries, dead: make([]bool, len(entries))}
	for _, tp := range ms.tombs {
		seg.dead[tp] = true
		seg.nDead++
	}
	return seg, nil
}

// replayLocked applies the WAL onto the manifest state. Rules, each keyed to
// a crash window of the commit protocol (manifest rename before WAL
// rewrite):
//
//   - 'A' whose id any segment knows (live or dead) is skipped — the add was
//     flushed and the stale WAL not yet rewritten; if the id is dead, a
//     later 'R' in this same WAL (or the manifest itself) tombstoned it.
//   - 'A' with an unknown id joins the memtable. Applied ids must be
//     strictly ascending and above every segment id — they were assigned
//     monotonically after every flushed tree.
//   - 'R' drops a memtable entry, tombstones a live segment entry, and is
//     skipped for unknown or already-dead ids (the remove — or the
//     compaction that erased the tree entirely — already committed).
//
// Any record violating these is indistinguishable from corruption and
// truncates the WAL from that point, like a torn tail.
func (s *Store) replayLocked() error {
	path := filepath.Join(s.dir, walName)
	if _, err := s.fs.Stat(path); notExist(err) {
		return rewriteWALFile(s.fs, path, nil, nil, s.lt.Len(), s.opt.NoSync)
	}
	ops, err := replayWAL(s.fs, path, s.lt, s.opt.NoSync)
	if err != nil {
		return err
	}
	maxSegID := int64(-1)
	for id := range s.segIDs {
		if id > maxSegID {
			maxSegID = id
		}
	}
	for _, op := range ops {
		if op.remove {
			l, ok := s.byID[op.id]
			if !ok {
				continue
			}
			s.removeLocLocked(op.id, l)
			continue
		}
		if s.segIDs[op.id] {
			continue
		}
		if _, ok := s.byID[op.id]; ok {
			continue
		}
		if op.id <= maxSegID || (len(s.mem) > 0 && op.id <= s.mem[len(s.mem)-1].id) {
			// Unreachable by any crash of the commit protocol: corruption.
			break
		}
		s.addMemLocked(op.id, op.t)
	}
	return nil
}

// addMemLocked inserts a tree into the memtable under id, deduping its
// content against every known block.
func (s *Store) addMemLocked(id int64, t *tree.Tree) {
	nb := s.blockFor(t)
	s.mem = append(s.mem, memEntry{id: id, blk: nb})
	s.byID[id] = loc{seg: -1, pos: len(s.mem) - 1}
	if id >= s.nextID {
		s.nextID = id + 1
	}
}

// blockFor returns the canonical block of t's content, building view + hash
// on first sight.
func (s *Store) blockFor(t *tree.Tree) *block {
	var v *ted.TreeView
	if s.arts != nil {
		v = s.arts.Views([]*tree.Tree{t})[0]
	} else {
		v = ted.BuildViews([]*tree.Tree{t})[0]
	}
	nb := newBlock(t, v)
	if canon, ok := s.byHash[nb.hash]; ok {
		return canon
	}
	s.byHash[nb.hash] = nb
	return nb
}

// removeLocLocked erases one live id: memtable splice or tombstone.
func (s *Store) removeLocLocked(id int64, l loc) {
	delete(s.byID, id)
	if l.seg >= 0 {
		seg := s.segs[l.seg]
		seg.dead[l.pos] = true
		seg.nDead++
		s.dirty = true
		return
	}
	s.mem = append(s.mem[:l.pos], s.mem[l.pos+1:]...)
	for i := l.pos; i < len(s.mem); i++ {
		s.byID[s.mem[i].id] = loc{seg: -1, pos: i}
	}
}

// SetArtifacts wires the corpus cache in; views and bags flow through it
// from now on.
func (s *Store) SetArtifacts(a Artifacts) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.arts = a
}

// Labels returns the store's label table (shared with the owning corpus).
func (s *Store) Labels() *tree.LabelTable { return s.lt }

// NextID returns the next id the corpus should assign.
func (s *Store) NextID() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextID
}

// Live returns every live entry in position order — segments in manifest
// order, then the memtable; ids ascend throughout.
func (s *Store) Live() []LiveTree {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]LiveTree, 0, len(s.byID))
	for _, seg := range s.segs {
		for pos, e := range seg.entries {
			if seg.dead[pos] {
				continue
			}
			b := seg.blocks[e.blk]
			out = append(out, LiveTree{ID: e.id, Tree: b.t, View: b.view, Bags: b.bags})
		}
	}
	for _, me := range s.mem {
		out = append(out, LiveTree{ID: me.id, Tree: me.blk.t, View: me.blk.view, Bags: me.blk.bags})
	}
	return out
}

// Add appends (id, t) through the WAL into the memtable, flushing into a new
// segment when the budget fills. id must be at least NextID() and t must use
// the store's label table. An error means the add did not happen (and will
// not resurface after a reopen); a nil return means it is durable — if the
// flush it triggered then fails, the store degrades (see ErrDegraded) but
// the add itself is already safe in the WAL.
func (s *Store) Add(id int64, t *tree.Tree) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("segstore: store is closed")
	}
	if s.degraded {
		return s.degradedErrLocked()
	}
	if t.Labels != s.lt {
		return fmt.Errorf("segstore: tree does not use the store's label table")
	}
	if id < s.nextID {
		return fmt.Errorf("segstore: id %d below next id %d", id, s.nextID)
	}
	labels := s.lt.Len() // once: the table may grow under a concurrent parse
	if err := s.wal.append(encodeAdd(id, s.lt, s.walLabels, labels, t)); err != nil {
		if s.wal.failed() {
			s.enterDegradedLocked(err)
		}
		return err
	}
	s.walLabels = labels
	s.addMemLocked(id, t)
	if len(s.mem) >= s.opt.MemtableBudget {
		if err := s.flushLocked(); err != nil {
			s.enterDegradedLocked(err)
		}
	}
	return nil
}

// Remove tombstones id: WAL record first, then a memtable drop or a segment
// tombstone; enough tombstones trigger compaction. The same error contract
// as Add: an error means the remove did not happen; a failed compaction
// behind a successful remove degrades the store instead of failing the call.
func (s *Store) Remove(id int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("segstore: store is closed")
	}
	if s.degraded {
		return s.degradedErrLocked()
	}
	l, ok := s.byID[id]
	if !ok {
		return fmt.Errorf("segstore: id %d is not live", id)
	}
	if err := s.wal.append(encodeRemove(id)); err != nil {
		if s.wal.failed() {
			s.enterDegradedLocked(err)
		}
		return err
	}
	s.removeLocLocked(id, l)
	s.maybeCompactLocked()
	return nil
}

// Bulk populates a fresh, empty store with a whole corpus in one segment —
// the SaveTo path. ids must ascend; nextID must exceed them all.
func (s *Store) Bulk(ids []int64, ts []*tree.Tree, nextID int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("segstore: store is closed")
	}
	if s.degraded {
		return s.degradedErrLocked()
	}
	if len(s.segs) != 0 || len(s.mem) != 0 {
		return fmt.Errorf("segstore: Bulk needs an empty store")
	}
	prev := int64(-1)
	for i, id := range ids {
		if id <= prev {
			return fmt.Errorf("segstore: Bulk ids not ascending at %d", i)
		}
		prev = id
		if ts[i].Labels != s.lt {
			return fmt.Errorf("segstore: tree %d does not use the store's label table", i)
		}
	}
	for i, id := range ids {
		s.addMemLocked(id, ts[i])
	}
	if nextID > s.nextID {
		s.nextID = nextID
	}
	var err error
	if len(s.mem) == 0 {
		err = s.writeManifestLocked()
	} else {
		err = s.flushLocked()
	}
	if err != nil {
		// Bulk bypasses the WAL (durability is the flush itself), so unlike
		// Add the failure surfaces to the caller — and the store degrades,
		// since the in-memory state now leads the committed one.
		s.enterDegradedLocked(err)
		return err
	}
	return nil
}

// Flush forces the memtable into a segment (no-op when empty, beyond
// persisting pending tombstones). On a degraded store, Flush is the
// synchronous recovery hook: it retries the failed commit and clears
// degraded mode on success.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("segstore: store is closed")
	}
	if s.degraded {
		return s.recoverLocked()
	}
	var err error
	switch {
	case len(s.mem) > 0:
		err = s.flushLocked()
	case s.dirty:
		err = s.commitLocked()
	default:
		return nil
	}
	if err != nil {
		s.enterDegradedLocked(err)
	}
	return err
}

// flushLocked writes the memtable as a new segment, then commits: manifest
// rename first (the commit point), WAL rewrite second. The segment file is
// fully written before any in-memory state changes, so a failure before the
// commit leaves the store exactly as it was (minus an orphan file the next
// open removes).
func (s *Store) flushLocked() error {
	blocks, entries := s.collectMem()
	bags := s.collectBags(blocks)
	name := fmt.Sprintf(segPattern, s.segSeq)
	if err := writeSegmentFile(s.fs, filepath.Join(s.dir, name), s.lt, blocks, entries, bags, s.opt.NoSync); err != nil {
		return err
	}
	s.segSeq++
	seg := &liveSeg{name: name, blocks: blocks, entries: entries, dead: make([]bool, len(entries))}
	s.segs = append(s.segs, seg)
	for pos, e := range entries {
		s.byID[e.id] = loc{seg: len(s.segs) - 1, pos: pos}
		s.segIDs[e.id] = true
	}
	s.mem = nil
	s.flushes++
	if err := s.commitLocked(); err != nil {
		return err
	}
	s.maybeCompactLocked()
	return nil
}

// collectMem lays the memtable out as (blocks, entries): distinct blocks in
// first-use order, entries referencing them by index.
func (s *Store) collectMem() ([]*block, []segEntry) {
	idx := make(map[*block]int32)
	var blocks []*block
	entries := make([]segEntry, 0, len(s.mem))
	for _, me := range s.mem {
		bi, ok := idx[me.blk]
		if !ok {
			bi = int32(len(blocks))
			idx[me.blk] = bi
			blocks = append(blocks, me.blk)
		}
		entries = append(entries, segEntry{id: me.id, blk: bi})
	}
	return blocks, entries
}

// collectBags gathers, per persistable kind, one bag per block. A kind is
// persisted when every block has one — from an earlier segment load or built
// through the corpus artifacts; partial coverage drops the kind (the cache
// rebuilds those bags lazily after a reopen).
func (s *Store) collectBags(blocks []*block) map[string][][]engine.BagEntry {
	kinds := make(map[string]bool)
	for _, b := range blocks {
		for k := range b.bags {
			kinds[k] = true
		}
	}
	if s.arts != nil {
		for _, k := range s.arts.BagKinds() {
			kinds[k] = true
		}
	}
	if len(kinds) == 0 || len(blocks) == 0 {
		return nil
	}
	ts := make([]*tree.Tree, len(blocks))
	for i, b := range blocks {
		ts[i] = b.t
	}
	out := make(map[string][][]engine.BagEntry, len(kinds))
kind:
	for kind := range kinds {
		perBlock := make([][]engine.BagEntry, len(blocks))
		var missing []int
		for i, b := range blocks {
			if bag, ok := b.bags[kind]; ok {
				perBlock[i] = bag
			} else {
				missing = append(missing, i)
			}
		}
		if len(missing) > 0 {
			if s.arts == nil {
				continue
			}
			missTs := make([]*tree.Tree, len(missing))
			for j, i := range missing {
				missTs[j] = ts[i]
			}
			built, ok := s.arts.Bags(kind, missTs)
			if !ok {
				continue kind
			}
			for j, i := range missing {
				perBlock[i] = built[j]
				if blocks[i].bags == nil {
					blocks[i].bags = make(map[string][]engine.BagEntry, len(kinds))
				}
				blocks[i].bags[kind] = built[j]
			}
		}
		out[kind] = perBlock
	}
	return out
}

// commitLocked is the two-file commit: manifest tmp+rename (after which the
// new epoch is the truth), then a WAL rewrite holding exactly the current
// memtable. A crash between the two leaves the stale-WAL window replayLocked
// is built for.
func (s *Store) commitLocked() error {
	if err := s.writeManifestLocked(); err != nil {
		return err
	}
	return s.rewriteWALLocked()
}

func (s *Store) writeManifestLocked() error {
	m := &manifest{nextID: s.nextID, lt: s.lt}
	for _, seg := range s.segs {
		m.segs = append(m.segs, manifestSeg{name: seg.name, nEntries: len(seg.entries), tombs: sortedTombs(seg.dead)})
	}
	if err := writeManifestTo(s.fs, filepath.Join(s.dir, manifestName), m, s.opt.NoSync); err != nil {
		return err
	}
	s.dirty, s.walLabels = false, m.labels
	return nil
}

func (s *Store) rewriteWALLocked() error {
	ids := make([]int64, len(s.mem))
	ts := make([]*tree.Tree, len(s.mem))
	for i, me := range s.mem {
		ids[i] = me.id
		ts[i] = me.blk.t
	}
	// The old writer is done either way; a close error does not matter (the
	// rewrite below replaces the file wholesale) and a failed rewrite leaves
	// s.wal closed, which append reports as errWALClosed until recovery.
	_ = s.wal.close()
	if err := rewriteWALFile(s.fs, filepath.Join(s.dir, walName), ids, ts, s.walLabels, s.opt.NoSync); err != nil {
		return err
	}
	wal, err := openWALForAppend(s.fs, filepath.Join(s.dir, walName), s.opt.NoSync)
	if err != nil {
		return err
	}
	s.wal = wal
	return nil
}

// maybeCompactLocked applies the compaction trigger — at least CompactMinDead
// tombstones and more dead than live — synchronously under NoBackground,
// otherwise by waking the compactor. A synchronous compaction failure
// degrades the store (the mutation that triggered it has already committed).
func (s *Store) maybeCompactLocked() {
	dead, live := 0, 0
	for _, seg := range s.segs {
		dead += seg.nDead
		live += len(seg.entries) - seg.nDead
	}
	if dead < s.opt.CompactMinDead || dead <= live {
		return
	}
	if s.opt.NoBackground {
		if err := s.compactLocked(); err != nil {
			s.enterDegradedLocked(err)
		}
		return
	}
	select {
	case s.compactCh <- struct{}{}:
	default:
	}
}

// Compact forces a full merge of all segments into one, dropping every
// tombstoned entry and deduplicating blocks across segments on disk. On a
// degraded store it first retries recovery, then compacts.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("segstore: store is closed")
	}
	if s.degraded {
		if err := s.recoverLocked(); err != nil {
			return err
		}
	}
	if err := s.compactLocked(); err != nil {
		s.enterDegradedLocked(err)
		return err
	}
	return nil
}

// compactLocked merges every segment into one. Soundness mirrors the token
// index's generation swap: the merged segment is built from the live entries
// of the current epoch while holding the mutation lock, so no live entry can
// be dropped; the manifest rename publishes it atomically, and only then are
// the old files unlinked.
func (s *Store) compactLocked() error {
	if len(s.segs) == 0 {
		if s.dirty {
			return s.commitLocked()
		}
		return nil
	}
	totalDead := 0
	for _, seg := range s.segs {
		totalDead += seg.nDead
	}
	if len(s.segs) == 1 && totalDead == 0 {
		return nil // already fully merged
	}
	idx := make(map[*block]int32)
	var blocks []*block
	var entries []segEntry
	for _, seg := range s.segs {
		for pos, e := range seg.entries {
			if seg.dead[pos] {
				continue
			}
			b := seg.blocks[e.blk]
			bi, ok := idx[b]
			if !ok {
				bi = int32(len(blocks))
				idx[b] = bi
				blocks = append(blocks, b)
			}
			entries = append(entries, segEntry{id: e.id, blk: bi})
		}
	}
	bags := s.collectBags(blocks)
	name := fmt.Sprintf(segPattern, s.segSeq)
	if err := writeSegmentFile(s.fs, filepath.Join(s.dir, name), s.lt, blocks, entries, bags, s.opt.NoSync); err != nil {
		return err
	}
	s.segSeq++
	old := s.segs
	seg := &liveSeg{name: name, blocks: blocks, entries: entries, dead: make([]bool, len(entries))}
	s.segs = []*liveSeg{seg}
	s.segIDs = make(map[int64]bool, len(entries))
	for pos, e := range entries {
		s.byID[e.id] = loc{seg: 0, pos: pos}
		s.segIDs[e.id] = true
	}
	// Blocks referenced by no live entry leave the dedup map with their
	// segments — a re-added duplicate simply recomputes its block.
	s.byHash = make(map[[32]byte]*block, len(blocks))
	for _, b := range blocks {
		s.byHash[b.hash] = b
	}
	for _, me := range s.mem {
		s.byHash[me.blk.hash] = me.blk
	}
	s.compacts++
	if err := s.commitLocked(); err != nil {
		return err
	}
	for _, o := range old {
		// Best-effort: a file that cannot be unlinked is an orphan the next
		// open removes (the committed manifest no longer references it).
		_ = s.fs.Remove(filepath.Join(s.dir, o.name))
	}
	return nil
}

// startBackground launches the compactor and the degraded-mode recovery
// loop. Under NoBackground neither runs: compaction happens inline and
// Flush/Compact double as the recovery hooks.
func (s *Store) startBackground() {
	s.compactCh = make(chan struct{}, 1)
	s.recoverCh = make(chan struct{}, 1)
	s.stopCh = make(chan struct{})
	if s.opt.NoBackground {
		return
	}
	s.wg.Add(2)
	go func() {
		defer s.wg.Done()
		for range s.compactCh {
			s.mu.Lock()
			if !s.closed && !s.degraded {
				if err := s.compactLocked(); err != nil {
					s.enterDegradedLocked(err)
				}
			}
			s.mu.Unlock()
		}
	}()
	go s.recoveryLoop()
}

// Close flushes the memtable into a segment, persists pending tombstones,
// stops the background goroutines, and releases the WAL. The directory then
// reopens purely from segments. Closing a degraded store attempts one final
// recovery and reports its error; the on-disk state stays consistent either
// way (that is the degraded-mode invariant).
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	var err error
	switch {
	case s.degraded:
		err = s.recoverLocked()
		if err == nil && len(s.mem) > 0 {
			err = s.flushLocked()
		}
	case len(s.mem) > 0:
		err = s.flushLocked()
	case s.dirty:
		err = s.commitLocked()
	}
	s.closed = true
	s.mu.Unlock()
	close(s.compactCh)
	close(s.stopCh)
	s.wg.Wait()
	if cerr := s.wal.close(); err == nil {
		err = cerr
	}
	return err
}

// Stats snapshots the lifecycle counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Segments:            len(s.segs),
		SegmentsOpened:      s.segsOpened,
		MemtableTrees:       len(s.mem),
		CompactionRuns:      s.compacts,
		FlushRuns:           s.flushes,
		LiveTrees:           len(s.byID),
		Degraded:            s.degraded,
		RecoveryAttempts:    s.recoveries,
		QuarantinedSegments: len(s.quarantined),
	}
	if s.degradedErr != nil {
		st.DegradedReason = s.degradedErr.Error()
	}
	seen := make(map[*block]bool)
	for _, seg := range s.segs {
		st.TombstonedTrees += seg.nDead
		st.Entries += len(seg.entries)
		for _, b := range seg.blocks {
			if !seen[b] {
				seen[b] = true
				st.Blocks++
			}
		}
	}
	return st
}

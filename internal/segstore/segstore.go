package segstore

import (
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

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
	// NoBackground runs every triggered flush and compaction synchronously
	// inside the mutating call instead of on a background goroutine — the same
	// freeze/snapshot → build → install steps, scheduled inline — and disables
	// the degraded-mode retry goroutine: Flush and Compact then double as the
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
	MemtableTrees   int   // trees in the active WAL-backed memtable (a frozen one counts nowhere until its segment installs)
	TombstonedTrees int   // dead entries awaiting compaction
	CompactionRuns  int64 // merges performed
	FlushRuns       int64 // memtable → segment flushes
	LiveTrees       int   // live entries (segments + memtable)
	Blocks          int   // distinct tree contents across live segments
	Entries         int   // total segment entries, dead included

	// Where the write path's time went. StallTime is what mutating calls spent
	// waiting — for the one frozen-memtable slot, or for the store's lock
	// while someone else (an install, a Stats call) held it; FlushTime and
	// CompactionTime are the wall clock of the flushes and merges themselves,
	// wherever they ran.
	StallTime           time.Duration
	FlushTime           time.Duration
	CompactionTime      time.Duration
	WALSyncs            int64 // fsyncs of WAL appends: one per mutating call, none under NoSync
	SegmentBytesWritten int64 // bytes of segment files written by flushes and merges

	Degraded            bool   // store is read-only pending recovery
	DegradedReason      string // the I/O failure that degraded it ("" when healthy)
	RecoveryAttempts    int64  // degraded-mode recovery attempts (successful or not)
	QuarantinedSegments int    // segments Open(Salvage) set aside
}

// LiveTree is one live corpus entry as the store surfaces it: duplicates
// share the Tree of their canonical block.
type LiveTree struct {
	ID   int64
	Tree *tree.Tree
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

// liveMem returns the segment's live entries as memtable entries.
func (seg *liveSeg) liveMem() []memEntry {
	out := make([]memEntry, 0, len(seg.entries)-seg.nDead)
	for pos, e := range seg.entries {
		if !seg.dead[pos] {
			out = append(out, memEntry{id: e.id, blk: seg.blocks[e.blk]})
		}
	}
	return out
}

// loc addresses one live id: an entry of a segment — installed, or the frozen
// memtable on its way to becoming one — or, with seg nil, a slot of the active
// memtable, found by bisecting its ascending ids.
type loc struct {
	seg *liveSeg
	pos int
}

// segJob is one segment on its way to disk: a frozen memtable, or the merge
// of the first merged segments. It is planned under the store's lock, built
// without it (the build touches only the job and the filesystem), and
// installed under it again; NoBackground, Flush, Compact and recovery run the
// same three steps without letting go of the lock in between.
type segJob struct {
	seg    *liveSeg
	merged int // leading segments this one replaces; 0 for a flush
	start  time.Time
	bytes  int // size of the written file
}

// Store is a persistent corpus directory. All methods are safe for
// concurrent use; mutations serialise on one mutex (the corpus layer
// additionally serialises its own writers), which flushes and compactions
// hold only to freeze their input and to install their result.
type Store struct {
	dir string
	opt Options
	fs  FS

	mu         sync.Mutex
	cond       *sync.Cond // signalled when imm or compacting clears, and on Close
	lt         *tree.LabelTable
	segs       []*liveSeg
	imm        *liveSeg // the frozen memtable while its segment is built; not yet in segs
	mem        []memEntry
	compacting bool // a background merge is in flight
	byID       map[int64]loc
	byHash     map[[32]byte]*block
	nextID     int64
	wal        *walWriter
	walLabels  int // labels the last WAL record or manifest made durable: a prefix of lt
	segSeq     int
	closed     bool
	dirty      bool // manifest on disk lags in-memory tombstones

	enc    cw // the block hasher's scratch, under mu
	walBuf []byte

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
	walSyncs   int64
	segBytes   int64
	stall      time.Duration
	flushTime  time.Duration
	mergeTime  time.Duration

	recoverCh chan struct{}
	stopCh    chan struct{}
	wg        sync.WaitGroup
}

// newStore returns the store both Create and Open fill in.
func newStore(dir string, opt Options, lt *tree.LabelTable) *Store {
	s := &Store{
		dir:    dir,
		opt:    opt,
		fs:     opt.FS,
		lt:     lt,
		byID:   make(map[int64]loc),
		byHash: make(map[[32]byte]*block),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
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
	s := newStore(dir, opt, lt)
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

// Open loads the store in dir: manifest, segments of either format version
// (bulk CRC and structure verified, blocks deduplicated by content address),
// WAL replay, orphan cleanup. With Options.Salvage,
// segments that fail integrity checks are quarantined instead of failing the
// open (see Options.Salvage and SalvageReport).
func Open(dir string, opt Options) (*Store, error) {
	opt = opt.withDefaults()
	fsys := opt.FS
	m, err := readManifest(fsys, filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	s := newStore(dir, opt, m.lt)
	s.nextID = m.nextID
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
		// content addresses collapse to one in-memory block.
		for i, b := range seg.blocks {
			if canon, ok := s.byHash[b.hash]; ok {
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
			if !seg.dead[pos] {
				s.byID[e.id] = loc{seg: seg, pos: pos}
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
// touching store state: the decode (bulk CRC, structural checks), the
// manifest's entry count, and id ascension past prevID.
func (s *Store) loadSegment(ms manifestSeg, prevID int64) (*liveSeg, error) {
	blocks, _, entries, err := readSegmentFile(s.fs, filepath.Join(s.dir, ms.name), s.lt)
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
		return rewriteWALFile(s.fs, path, nil, s.lt.Len(), s.opt.NoSync)
	}
	ops, err := replayWAL(s.fs, path, s.lt, s.opt.NoSync)
	if err != nil {
		return err
	}
	// Every segment entry id, dead included, and the largest of them.
	segIDs := make(map[int64]bool)
	maxSegID := int64(-1)
	for _, seg := range s.segs {
		for _, e := range seg.entries {
			segIDs[e.id] = true
			maxSegID = e.id // ids ascend through manifest order
		}
	}
	for _, op := range ops {
		if op.remove {
			if l, ok := s.byID[op.id]; ok {
				s.removeLocLocked(op.id, l)
			}
			continue
		}
		if _, ok := s.byID[op.id]; ok || segIDs[op.id] {
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
	nb := newBlock(&s.enc, t)
	if canon, ok := s.byHash[nb.hash]; ok {
		nb = canon
	} else {
		s.byHash[nb.hash] = nb
	}
	s.mem = append(s.mem, memEntry{id: id, blk: nb})
	s.byID[id] = loc{}
	if id >= s.nextID {
		s.nextID = id + 1
	}
}

// removeLocLocked erases one live id: a memtable splice, or a tombstone — in
// an installed segment, or in the frozen memtable, whose segment then starts
// life with the entry dead.
func (s *Store) removeLocLocked(id int64, l loc) {
	delete(s.byID, id)
	if l.seg != nil {
		l.seg.dead[l.pos] = true
		l.seg.nDead++
		s.dirty = true
		return
	}
	pos := sort.Search(len(s.mem), func(i int) bool { return s.mem[i].id >= id })
	s.mem = append(s.mem[:pos], s.mem[pos+1:]...)
}

// Labels returns the store's label table (shared with the owning corpus).
func (s *Store) Labels() *tree.LabelTable { return s.lt }

// NextID returns the next id the corpus should assign.
func (s *Store) NextID() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextID
}

// heldSegsLocked lists the installed segments and, after them, the frozen
// memtable if there is one.
func (s *Store) heldSegsLocked() []*liveSeg {
	if s.imm == nil {
		return s.segs
	}
	return append(s.segs[:len(s.segs):len(s.segs)], s.imm)
}

// Live returns every live entry in position order — segments in manifest
// order, then the frozen memtable, then the active one; ids ascend throughout.
func (s *Store) Live() []LiveTree {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]LiveTree, 0, len(s.byID))
	for _, seg := range s.heldSegsLocked() {
		for pos, e := range seg.entries {
			if seg.dead[pos] {
				continue
			}
			out = append(out, LiveTree{ID: e.id, Tree: seg.blocks[e.blk].t})
		}
	}
	for _, me := range s.mem {
		out = append(out, LiveTree{ID: me.id, Tree: me.blk.t})
	}
	return out
}

// lockMutation takes the store's lock for a mutating call, charging any wait
// for it to StallTime.
func (s *Store) lockMutation() {
	if s.mu.TryLock() {
		return
	}
	t0 := time.Now()
	s.mu.Lock()
	s.stall += time.Since(t0)
}

// writableLocked reports why the store takes no mutation right now, if so.
func (s *Store) writableLocked() error {
	if s.closed {
		return fmt.Errorf("segstore: store is closed")
	}
	if s.degraded {
		return s.degradedErrLocked()
	}
	return nil
}

// appendWALLocked makes the records of one mutating call durable: one write,
// one fsync. An error means none of them is in the log.
func (s *Store) appendWALLocked(recs []byte) error {
	s.walBuf = recs[:0] // keep the grown buffer for the next call
	if err := s.wal.append(recs); err != nil {
		if s.wal.failed() {
			s.enterDegradedLocked(err)
		}
		return err
	}
	if !s.opt.NoSync {
		s.walSyncs++
	}
	return nil
}

// Add appends ts under the ids firstID, firstID+1, … through the WAL into the
// memtable as one batch, and hands a memtable that reached the budget to a
// flush. firstID must be at least NextID() and the trees must use the store's
// label table. An error means none of the batch happened (and none will
// resurface after a reopen); a nil return means all of it is durable — if the
// flush it triggered then fails, the store degrades (see ErrDegraded) but the
// adds themselves are already safe in the WAL.
func (s *Store) Add(firstID int64, ts ...*tree.Tree) error {
	if len(ts) == 0 {
		return nil
	}
	s.lockMutation()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return err
	}
	for _, t := range ts {
		if t.Labels != s.lt {
			return fmt.Errorf("segstore: tree does not use the store's label table")
		}
	}
	if firstID < s.nextID {
		return fmt.Errorf("segstore: id %d below next id %d", firstID, s.nextID)
	}
	labels := s.lt.Len() // once: the table may grow under a concurrent parse
	recs, prev := s.walBuf, s.walLabels
	for i, t := range ts {
		// The first record carries every label interned since the last one.
		recs = appendAdd(recs, firstID+int64(i), s.lt, prev, labels, t)
		prev = labels
	}
	if err := s.appendWALLocked(recs); err != nil {
		return err
	}
	s.walLabels = labels
	for i, t := range ts {
		s.addMemLocked(firstID+int64(i), t)
	}
	s.maybeFlushLocked()
	return nil
}

// Remove tombstones ids as one batch: WAL records first, then per id a
// memtable drop or a tombstone; enough tombstones trigger compaction. The
// same error contract as Add: an error (one of the ids is not live, or the
// WAL write failed) means none of the removes happened; a failed compaction
// behind a successful remove degrades the store instead of failing the call.
func (s *Store) Remove(ids ...int64) error {
	if len(ids) == 0 {
		return nil
	}
	s.lockMutation()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return err
	}
	recs := s.walBuf
	for _, id := range ids {
		if _, ok := s.byID[id]; !ok {
			return fmt.Errorf("segstore: id %d is not live", id)
		}
		recs = appendRemove(recs, id)
	}
	if err := s.appendWALLocked(recs); err != nil {
		return err
	}
	for _, id := range ids {
		if l, ok := s.byID[id]; ok { // an id listed twice is removed once
			s.removeLocLocked(id, l)
		}
	}
	s.maybeCompactLocked()
	return nil
}

// Bulk populates a fresh, empty store with a whole corpus in one segment —
// the SaveTo path. ids must ascend; nextID must exceed them all.
func (s *Store) Bulk(ids []int64, ts []*tree.Tree, nextID int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return err
	}
	if len(s.segs) != 0 || len(s.mem) != 0 || s.imm != nil {
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
	for i, t := range ts {
		s.addMemLocked(ids[i], t)
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

// drainLocked waits until no background flush or merge is in flight, so the
// caller can run its own under the lock without meeting one.
func (s *Store) drainLocked() {
	for s.imm != nil || s.compacting {
		s.cond.Wait()
	}
}

// Flush forces the memtable into a segment (no-op when empty, beyond
// persisting pending tombstones), after any flush or merge already in flight
// has finished. On a degraded store, Flush is the synchronous recovery hook:
// it retries the failed commit and clears degraded mode on success.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.drainLocked()
	if s.closed {
		return fmt.Errorf("segstore: store is closed")
	}
	if s.degraded {
		return s.recoverLocked()
	}
	err := s.persistLocked()
	if err != nil {
		s.enterDegradedLocked(err)
	}
	return err
}

// persistLocked flushes the memtable if it holds anything, and otherwise
// commits pending tombstones if there are any.
func (s *Store) persistLocked() error {
	switch {
	case len(s.mem) > 0:
		return s.flushLocked()
	case s.dirty:
		return s.commitLocked()
	}
	return nil
}

// maybeFlushLocked hands a memtable that reached the budget to a flush:
// inline under NoBackground, otherwise frozen here — a fresh memtable takes
// the writes from now on — and built on a goroutine of its own. There is one
// frozen memtable at a time: a writer that fills the next one before the
// first is installed waits here, and the wait is charged to StallTime.
func (s *Store) maybeFlushLocked() {
	full := func() bool { return len(s.mem) >= s.opt.MemtableBudget && !s.closed && !s.degraded }
	if !full() {
		return
	}
	if s.opt.NoBackground {
		if err := s.flushLocked(); err != nil {
			s.enterDegradedLocked(err)
		}
		return
	}
	if s.imm != nil {
		t0 := time.Now()
		for s.imm != nil && full() {
			s.cond.Wait()
		}
		s.stall += time.Since(t0)
		if s.imm != nil || !full() { // another writer froze it, or the store closed or degraded
			return
		}
	}
	job := s.freezeLocked()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		err := s.buildSegment(job)
		s.mu.Lock()
		defer s.mu.Unlock()
		if err := s.installFlushLocked(job, err); err != nil {
			s.enterDegradedLocked(err)
		}
	}()
}

// flushLocked is the whole flush under the lock: freeze, build, install.
func (s *Store) flushLocked() error {
	job := s.freezeLocked()
	return s.installFlushLocked(job, s.buildSegment(job))
}

// freezeLocked turns the memtable into its future segment and starts a fresh
// one. Until the segment installs, the frozen entries stay live, readable and
// removable through s.imm.
func (s *Store) freezeLocked() *segJob {
	job := s.newJobLocked(s.mem, 0)
	for pos, e := range job.seg.entries {
		s.byID[e.id] = loc{seg: job.seg, pos: pos}
	}
	s.imm, s.mem = job.seg, nil
	return job
}

// newJobLocked lays live out as the next segment: distinct blocks in
// first-use order, entries referencing them by index, the next file name.
func (s *Store) newJobLocked(live []memEntry, merged int) *segJob {
	idx := make(map[*block]int32)
	var blocks []*block
	entries := make([]segEntry, len(live))
	for i, me := range live {
		bi, ok := idx[me.blk]
		if !ok {
			bi = int32(len(blocks))
			idx[me.blk] = bi
			blocks = append(blocks, me.blk)
		}
		entries[i] = segEntry{id: me.id, blk: bi}
	}
	job := &segJob{
		seg:    &liveSeg{name: fmt.Sprintf(segPattern, s.segSeq), blocks: blocks, entries: entries, dead: make([]bool, len(entries))},
		merged: merged,
		start:  time.Now(),
	}
	s.segSeq++
	return job
}

// buildSegment writes the job's segment file (fsynced unless NoSync). It needs
// no lock: it reads the job, the immutable trees of its blocks, and the label
// table. The file is fully written before any in-memory state changes, so a
// failure leaves the store exactly as it was; it becomes live only when a
// manifest referencing it commits, and a crash before that leaves an orphan
// the next open removes.
func (s *Store) buildSegment(job *segJob) error {
	path := filepath.Join(s.dir, job.seg.name)
	data := encodeSegment(s.lt, job.seg.blocks, job.seg.entries)
	if err := writeFile(s.fs, path, data, s.opt.NoSync); err != nil {
		// Best-effort: the name is never reused, and a leftover is an orphan
		// the next open removes anyway.
		_ = s.fs.Remove(path)
		return err
	}
	job.bytes = len(data)
	return nil
}

// installFlushLocked ends a flush. A failed build thaws the frozen memtable
// back in front of the active one — the store is then exactly where a failed
// inline flush always left it: everything in the memtable and in the WAL.
// Otherwise the segment, carrying dead marks for the ids removed while it was
// built, joins the store and the commit follows: manifest rename first (the
// commit point), WAL rewrite second.
func (s *Store) installFlushLocked(job *segJob, buildErr error) error {
	defer s.cond.Broadcast()
	seg := job.seg
	s.imm = nil
	s.flushTime += time.Since(job.start)
	if buildErr != nil {
		thawed := seg.liveMem()
		for _, me := range thawed {
			s.byID[me.id] = loc{}
		}
		s.mem = append(thawed, s.mem...)
		return buildErr
	}
	s.segs = append(s.segs, seg)
	s.segBytes += int64(job.bytes)
	s.flushes++
	if err := s.commitLocked(); err != nil {
		return err
	}
	s.maybeCompactLocked()
	return nil
}

// commitLocked is the two-file commit: manifest tmp+rename (after which the
// new epoch is the truth), then a WAL rewrite holding exactly the trees no
// committed segment holds. A crash between the two leaves the stale-WAL
// window replayLocked is built for.
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

// rewriteWALLocked replaces the WAL with one holding the live entries of the
// frozen memtable (a merge may commit while a flush is still building) and
// the active one.
func (s *Store) rewriteWALLocked() error {
	mem := s.mem
	if s.imm != nil {
		mem = append(s.imm.liveMem(), mem...)
	}
	// The old writer is done either way; a close error does not matter (the
	// rewrite below replaces the file wholesale) and a failed rewrite leaves
	// s.wal closed, which append reports as errWALClosed until recovery.
	_ = s.wal.close()
	if err := rewriteWALFile(s.fs, filepath.Join(s.dir, walName), mem, s.walLabels, s.opt.NoSync); err != nil {
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
// otherwise on a goroutine of its own, one at a time. A compaction failure
// degrades the store (the mutation that triggered it has already committed).
func (s *Store) maybeCompactLocked() {
	dead, live := 0, 0
	for _, seg := range s.segs {
		dead += seg.nDead
		live += len(seg.entries) - seg.nDead
	}
	if dead < s.opt.CompactMinDead || dead <= live || s.compacting {
		return
	}
	if s.opt.NoBackground {
		if err := s.compactLocked(s.buildSegment); err != nil {
			s.enterDegradedLocked(err)
		}
		return
	}
	s.compacting = true
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.mu.Lock()
		defer s.mu.Unlock()
		if !s.closed && !s.degraded {
			if err := s.compactLocked(s.buildUnlocked); err != nil {
				s.enterDegradedLocked(err)
			}
		}
		s.compacting = false
		s.cond.Broadcast()
	}()
}

// buildUnlocked is buildSegment for a goroutine that holds the lock around it:
// it lets go of the lock for the build.
func (s *Store) buildUnlocked(job *segJob) error {
	s.mu.Unlock()
	defer s.mu.Lock()
	return s.buildSegment(job)
}

// Compact forces a full merge of all segments into one, dropping every
// tombstoned entry and deduplicating blocks across segments on disk, after
// any flush or merge already in flight has finished. On a degraded store it
// first retries recovery, then compacts.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.drainLocked()
	if s.closed {
		return fmt.Errorf("segstore: store is closed")
	}
	if s.degraded {
		if err := s.recoverLocked(); err != nil {
			return err
		}
	}
	if err := s.compactLocked(s.buildSegment); err != nil {
		s.enterDegradedLocked(err)
		return err
	}
	return nil
}

// compactLocked is the whole merge — snapshot, build, install — entered and
// left with the lock held; whether the build in the middle keeps it is the
// caller's choice of build.
func (s *Store) compactLocked(build func(*segJob) error) error {
	job := s.snapshotMergeLocked()
	if job == nil {
		if s.dirty {
			return s.commitLocked()
		}
		return nil
	}
	return s.installMergeLocked(job, build(job))
}

// snapshotMergeLocked lists the live entries of every installed segment, in
// order, as the entries of the one segment that will replace them; nil when
// the store is already fully merged.
func (s *Store) snapshotMergeLocked() *segJob {
	if len(s.segs) == 0 || (len(s.segs) == 1 && s.segs[0].nDead == 0) {
		return nil
	}
	var live []memEntry
	for _, seg := range s.segs {
		live = append(live, seg.liveMem()...)
	}
	return s.newJobLocked(live, len(s.segs))
}

// installMergeLocked ends a merge: the merged segment replaces the segments
// it was built from and the manifest rename publishes it atomically; only
// then are the old files unlinked. Soundness is snapshot, build, reconcile:
// every entry live at the snapshot is in the merged segment, so no live entry
// can be dropped; an entry removed since then is still there but no longer in
// byID, and gets its dead mark here; segments flushed since then hold only
// larger ids and stay behind the merged one, so ids still ascend through
// manifest order.
func (s *Store) installMergeLocked(job *segJob, buildErr error) error {
	s.mergeTime += time.Since(job.start)
	if buildErr != nil {
		return buildErr
	}
	seg := job.seg
	for pos, e := range seg.entries {
		if _, live := s.byID[e.id]; live {
			s.byID[e.id] = loc{seg: seg, pos: pos}
		} else {
			seg.dead[pos] = true
			seg.nDead++
		}
	}
	old := s.segs[:job.merged]
	s.segs = append([]*liveSeg{seg}, s.segs[job.merged:]...)
	s.segBytes += int64(job.bytes)
	// Blocks no segment or memtable references any more leave the dedup map
	// with their segments — a re-added duplicate simply recomputes its block.
	s.byHash = make(map[[32]byte]*block, len(seg.blocks))
	for _, h := range s.heldSegsLocked() {
		for _, b := range h.blocks {
			s.byHash[b.hash] = b
		}
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

// startBackground launches the degraded-mode recovery loop. Under
// NoBackground it does not run: flushes and compactions happen inline and
// Flush/Compact double as the recovery hooks.
func (s *Store) startBackground() {
	s.recoverCh = make(chan struct{}, 1)
	s.stopCh = make(chan struct{})
	if s.opt.NoBackground {
		return
	}
	s.wg.Add(1)
	go s.recoveryLoop()
}

// Close waits for any flush or merge in flight, flushes the memtable into a
// segment, persists pending tombstones, stops the background goroutines, and
// releases the WAL. The directory then reopens purely from segments. Closing
// a degraded store attempts one final recovery and reports its error; the
// on-disk state stays consistent either way (that is the degraded-mode
// invariant).
func (s *Store) Close() error {
	s.mu.Lock()
	s.drainLocked()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	var err error
	if s.degraded {
		err = s.recoverLocked()
	}
	if err == nil {
		err = s.persistLocked()
	}
	s.closed = true
	s.cond.Broadcast() // writers waiting for the frozen-memtable slot
	s.mu.Unlock()
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
		StallTime:           s.stall,
		FlushTime:           s.flushTime,
		CompactionTime:      s.mergeTime,
		WALSyncs:            s.walSyncs,
		SegmentBytesWritten: s.segBytes,
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

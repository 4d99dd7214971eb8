package treejoin

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"treejoin/internal/segstore"
	"treejoin/internal/tree"
)

// ErrNotPersistent reports a store-only operation (Compact, StoreStats with
// strict semantics) on a purely in-memory corpus.
var ErrNotPersistent = errors.New("treejoin: corpus has no backing store")

// ErrDegraded is wrapped by Add and Remove on a persistent corpus whose
// backing store hit an I/O failure (a full or faulty disk) it could not
// commit through. The corpus stays fully readable — queries, joins, and
// already-acknowledged trees are unaffected — and the store keeps retrying
// the failed commit in the background with capped exponential backoff;
// mutations succeed again once a retry lands (e.g. after space frees).
// Detect it with errors.Is(err, ErrDegraded); inspect StoreStats().Degraded
// and DegradedReason for the cause.
var ErrDegraded = segstore.ErrDegraded

// ScrubReport summarises a Corpus.Scrub pass over the backing store.
type ScrubReport = segstore.ScrubReport

// QuarantinedSegment describes one corrupt segment file that opening with
// WithSalvage set aside, including bounds on the tree ids it held.
type QuarantinedSegment = segstore.QuarantinedSegment

// StoreStats reports the state of a persistent corpus's backing segment
// store: live membership, segment and memtable occupancy, tombstones awaiting
// compaction, and lifecycle counters.
type StoreStats = segstore.Stats

// Open opens the persistent corpus stored at dir, creating an empty one if
// the directory holds no store yet, as a one-part corpus (OpenSharded picks
// the part count). The returned corpus is fully dynamic —
// every Add appends to the store's write-ahead log before it is visible, every
// Remove tombstones, and a background compactor folds segments once enough
// entries die. The store holds the canonical trees (duplicates share one
// in-memory instance) and their ids, nothing derived from them: the reopened
// corpus starts with an empty artifact cache, and its first join builds the
// signatures and views it needs on its workers, exactly as a NewCorpus over
// the same trees would — above Add the two are indistinguishable.
//
// Trees added to a persistent corpus must be built against the corpus's own
// label table (Labels()); the table is part of the store and survives
// reopening. Close the corpus when done — Close flushes the memtable into a
// segment and releases the store; a crash instead of a Close loses nothing
// (the WAL replays), it only leaves the memtable trees to be re-staged.
//
// The options that apply are the store's: WithStoreNoSync and WithSalvage.
func Open(dir string, opts ...Option) (*Corpus, error) { return OpenSharded(dir, 1, opts...) }

// openStore opens the store at dir, or creates an empty one there.
func openStore(dir string, c config) (s *segstore.Store, err error) {
	if _, statErr := os.Stat(filepath.Join(dir, "MANIFEST")); statErr == nil {
		s, err = segstore.Open(dir, c.storeOptions())
	} else {
		s, err = segstore.Create(dir, nil, c.storeOptions())
	}
	if err != nil {
		return nil, fmt.Errorf("treejoin: open store: %w", err)
	}
	return s, nil
}

// SaveTo writes the corpus's current live membership — the trees and their
// stable ids; cached artifacts are not stored — as a fresh persistent store at
// dir (which must not already hold one). The corpus itself is untouched and
// stays in-memory; Open(dir) later restores an equivalent corpus, addressing
// the same trees by the same ids.
func (cp *Corpus) SaveTo(dir string) error {
	st := cp.state.Load()
	lt := st.lt
	if lt == nil {
		lt = tree.NewLabelTable() // an empty corpus persists as an empty store
	}
	s, err := segstore.Create(dir, lt, segstore.Options{NoBackground: true})
	if err != nil {
		return fmt.Errorf("treejoin: save store: %w", err)
	}
	ids := make([]int64, len(st.ids))
	for i, id := range st.ids {
		ids[i] = int64(id)
	}
	ts := slices.Clone(st.ts)
	if err := s.Bulk(ids, ts, int64(st.nextID)); err != nil {
		s.Close()
		return fmt.Errorf("treejoin: save store: %w", err)
	}
	if err := s.Close(); err != nil {
		return fmt.Errorf("treejoin: save store: %w", err)
	}
	return nil
}

// Labels returns the corpus's label table: the table every tree added to it
// must be built against. For a persistent corpus the table belongs to the
// store and survives reopening; for an in-memory corpus it is the shared
// table of the constructor's trees (nil until the first tree arrives).
func (cp *Corpus) Labels() *LabelTable { return cp.state.Load().lt }

// Close releases the corpus's backing store, flushing the memtable into a
// final segment first, and waits for any background flush or compaction to
// finish.
// Further mutations fail; queries over the already-loaded state keep working.
// Closing an in-memory corpus (or a Snapshot view) is a no-op.
func (cp *Corpus) Close() error {
	if cp.store == nil || cp.frozen {
		return nil
	}
	cp.writeMu.Lock()
	defer cp.writeMu.Unlock()
	return cp.store.Close()
}

// Compact forces a full merge of the backing store's segments, dropping every
// tombstoned entry; the no-live-posting-dropped invariant means a compacted
// store answers every query exactly as before. Returns ErrNotPersistent for
// an in-memory corpus. Routine compaction is automatic (the background
// compactor runs once dead entries outnumber live ones); Compact is for
// reclaiming space on demand.
func (cp *Corpus) Compact() error {
	if cp.store == nil || cp.frozen {
		return ErrNotPersistent
	}
	return cp.store.Compact()
}

// StoreStats returns the backing store's statistics; ok is false (and the
// stats zero) for an in-memory corpus.
func (cp *Corpus) StoreStats() (stats StoreStats, ok bool) {
	if cp.store == nil {
		return StoreStats{}, false
	}
	return cp.store.Stats(), true
}

// Scrub re-reads and re-verifies every committed file of the backing store:
// the manifest decodes, each segment passes its bulk CRC and structural
// checks, every block re-hashes to its stored content address (a segment
// written before format version 2 to the address that version defined), and
// entry counts match the manifest. It is the deep check for corruption that
// crept in after the open (bit rot, external truncation, a misbehaving disk) —
// the open path alone would only notice on the next restart. It waits for a
// flush or compaction in flight; mutations then block for the duration,
// queries over the in-memory state do not. The error is non-nil iff any fault
// was found; the report carries the detail either way. Returns
// ErrNotPersistent for an in-memory corpus.
func (cp *Corpus) Scrub() (ScrubReport, error) {
	if cp.store == nil || cp.frozen {
		return ScrubReport{}, ErrNotPersistent
	}
	return cp.store.Scrub()
}

// SalvageReport returns what an Open with WithSalvage quarantined, empty for
// a clean open, a store opened without WithSalvage, or an in-memory corpus.
func (cp *Corpus) SalvageReport() []QuarantinedSegment {
	if cp.store == nil {
		return nil
	}
	return cp.store.SalvageReport()
}

// WithSalvage makes Open quarantine segment files that fail their integrity
// checks — renamed to *.quarantine and dropped from the manifest — and open
// the surviving corpus instead of refusing entirely. Quarantine never drops
// a readable live tree: only whole segments that failed verification are set
// aside, their bytes preserved under the new name for offline forensics.
// Inspect the loss with SalvageReport. Open-time option; without it a
// corrupt segment fails Open with the detailed decode error.
func WithSalvage() Option { return func(c *config) { c.salvage = true } }

// WithStoreNoSync disables per-operation fsync on the backing store's WAL and
// per-commit fsync on its manifests and segments. Throughput for bulk loads
// improves dramatically; the crash guarantee weakens from "every acknowledged
// mutation survives" to "the store recovers to some consistent recent state".
// Open-time option.
func WithStoreNoSync() Option { return func(c *config) { c.storeNoSync = true } }

// storeOptions maps the corpus-level config to store options.
func (c config) storeOptions() segstore.Options {
	return segstore.Options{
		MemtableBudget: c.memBudget,
		NoSync:         c.storeNoSync,
		Salvage:        c.salvage,
	}
}

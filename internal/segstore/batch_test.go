package segstore

import (
	"math/rand"
	"testing"

	"treejoin/internal/tree"
)

// TestBatchAllOrNothing: a transient failure of a batch's one WAL write (or
// its one fsync) leaves nothing of the batch behind — not in the log, not in
// the memtable, and not in NextID, so the caller's retry under the same ids
// is accepted. (When each tree was its own WAL record and call, a failure on
// the k-th left k−1 trees durable and NextID advanced: every later Add of the
// corpus above, which still held the old next id, failed until reopen.)
func TestBatchAllOrNothing(t *testing.T) {
	for _, failAt := range []int{0, 1} { // the write, the fsync
		rng := rand.New(rand.NewSource(31))
		fs := newErrFS()
		s, err := Create(sweepDir, nil, Options{MemtableBudget: 100, NoBackground: true, FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		var model modelState
		addBatch(t, s, rng, &model, 3)

		batch := make([]*tree.Tree, 4)
		for i := range batch {
			batch[i] = randTestTree(rng, s.Labels(), 8)
		}
		first := s.NextID()
		fs.arm(fEIO, failAt)
		if err := s.Add(first, batch...); err == nil {
			t.Fatalf("fault at op %d: Add succeeded", failAt)
		}
		fs.reset()
		if st := s.Stats(); st.Degraded || st.LiveTrees != 3 || st.MemtableTrees != 3 {
			t.Fatalf("fault at op %d: a clawed-back batch left its mark: %+v", failAt, st)
		}
		if got := s.NextID(); got != first {
			t.Fatalf("fault at op %d: NextID moved from %d to %d under a failed batch", failAt, first, got)
		}
		if err := s.Remove(model.ids[0], first); err == nil { // one live id, one that never was
			t.Fatalf("Remove of an id that is not live succeeded")
		}
		checkLive(t, s, model.ids, model.trees)

		if err := s.Add(first, batch...); err != nil {
			t.Fatalf("fault at op %d: retry under the same ids: %v", failAt, err)
		}
		for i, tr := range batch {
			model.ids, model.trees = append(model.ids, first+int64(i)), append(model.trees, tr)
		}
		checkLive(t, s, model.ids, model.trees)
		checkImage(t, "abandoned after the retry", fs, model)
	}
}

// TestStallAndSyncCounters: with everything inline no mutation ever waits, and
// with fsync on every mutating call costs exactly one WAL fsync, whatever the
// size of its batch.
func TestStallAndSyncCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	s, err := Create(sweepDir, nil, Options{MemtableBudget: 4, CompactMinDead: 2, NoBackground: true, FS: newErrFS()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var model modelState
	calls := int64(0)
	for i := 0; i < 12; i++ {
		addBatch(t, s, rng, &model, 1+i%3)
		calls++
		if i%2 == 1 {
			if err := s.Remove(model.ids[0], model.ids[1]); err != nil {
				t.Fatal(err)
			}
			model.ids, model.trees = model.ids[2:], model.trees[2:]
			calls++
		}
	}
	st := s.Stats()
	if st.FlushRuns == 0 || st.CompactionRuns == 0 {
		t.Fatalf("history drove no flush or no merge: %+v", st)
	}
	if st.StallTime != 0 {
		t.Fatalf("StallTime %v with flushes and merges inline", st.StallTime)
	}
	if st.WALSyncs != calls {
		t.Fatalf("WALSyncs %d after %d mutating calls", st.WALSyncs, calls)
	}
	if st.FlushTime <= 0 || st.CompactionTime <= 0 || st.SegmentBytesWritten <= 0 {
		t.Fatalf("flush and merge work not accounted: %+v", st)
	}
	checkLive(t, s, model.ids, model.trees)
}

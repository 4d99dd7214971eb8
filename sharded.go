package treejoin

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"treejoin/internal/sim"
)

// ErrShardCount reports a shard count below 1 passed to NewSharded or
// OpenSharded.
var ErrShardCount = errors.New("treejoin: shard count must be at least 1")

// NewSharded validates ts (no nil trees, one shared LabelTable) and returns a
// corpus over it whose membership is partitioned into n parts: each part's
// PartSJ indexes cover only its trees, so a mutation rebuilds one part's and
// Search fans out over the parts, while a join probes the parts' indexes
// composed into one. Ids are assigned 0..len(ts)-1 in order and tree i lives
// in part i mod n; results and join statistics are those of NewCorpus(ts),
// which is the n = 1 case. The slice is copied.
func NewSharded(n int, ts []*Tree) (*Corpus, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w (got %d)", ErrShardCount, n)
	}
	lt, err := checkTrees(nil, "tree", ts...)
	if err != nil {
		return nil, err
	}
	ids := make([]int, len(ts))
	for i := range ids {
		ids[i] = i
	}
	return newCorpus(n, slices.Clone(ts), ids, len(ts), lt, nil), nil
}

// OpenSharded is Open with the membership partitioned into n parts. The
// partition is derived from the store's stable ids on every open and is not
// part of the store: a directory reopens under any n to the same ids and the
// same results.
func OpenSharded(dir string, n int, opts ...Option) (*Corpus, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w (got %d)", ErrShardCount, n)
	}
	s, err := openStore(dir, buildConfig(opts))
	if err != nil {
		return nil, err
	}
	live := s.Live()
	ts, ids := make([]*Tree, len(live)), make([]int, len(live))
	for i, lv := range live {
		ts[i], ids[i] = lv.Tree, int(lv.ID)
	}
	return newCorpus(n, ts, ids, int(s.NextID()), s.Labels(), s), nil
}

// fanOut runs fn(i, w) for every i in [0, n) on a pool carrying the caller's
// worker budget: the units run concurrently, and whatever budget exceeds
// their number parallelises inside them, w workers each. A pool of one — a
// single unit, or a single worker — runs on the caller's goroutine.
func fanOut(n, workers int, fn func(i, w int)) {
	pool := sim.NormalizeWorkers(workers)
	w := max(pool/max(n, 1), 1)
	if pool = min(pool, n); pool == 1 {
		for i := range n {
			fn(i, w)
		}
		return
	}
	var wg sync.WaitGroup
	var next atomic.Int64
	for range pool {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i, w)
			}
		}()
	}
	wg.Wait()
}

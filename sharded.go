package treejoin

import (
	"context"
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
// corpus over it whose membership is partitioned into n parts — the paper's
// §6 trade of shared state for parallelism behind the one Corpus surface.
// Ids are assigned 0..len(ts)-1 in order and tree i lives in part i mod n;
// results are those of NewCorpus(ts), which is the n = 1 case. The slice is
// copied. Options are corpus-level (currently WithIndexCacheCap).
func NewSharded(n int, ts []*Tree, opts ...Option) (*Corpus, error) {
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
	return newCorpus(n, buildConfig(opts).indexCap, slices.Clone(ts), ids, len(ts), lt, nil), nil
}

// OpenSharded is Open with the membership partitioned into n parts. The
// partition is derived from the store's stable ids on every open and is not
// part of the store: a directory reopens under any n to the same ids and the
// same results.
func OpenSharded(dir string, n int, opts ...Option) (*Corpus, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w (got %d)", ErrShardCount, n)
	}
	c := buildConfig(opts)
	s, err := openStore(dir, c)
	if err != nil {
		return nil, err
	}
	live := s.Live()
	ts, ids := make([]*Tree, len(live)), make([]int, len(live))
	for i, lv := range live {
		ts[i], ids[i] = lv.Tree, int(lv.ID)
	}
	return newCorpus(n, c.indexCap, ts, ids, int(s.NextID()), s.Labels(), s), nil
}

// round is one unit of a join's decomposition over parts: the self join of
// part a (b < 0), or the cross join of part a with part b.
type round struct{ a, b int }

// selfRounds decomposes the self join of st: every part against itself plus
// one fragment-and-replicate round per pair of parts. Any such decomposition
// covers each unordered pair of trees exactly once, so the union of the
// rounds' results is the one-part corpus's. Rounds that cannot produce a pair
// are skipped — unless none is left, when part 0's still runs, so that the
// smallest corpus reports the Stats of a run like any other.
func selfRounds(st *corpusState) []round {
	var rounds []round
	for a, pa := range st.parts {
		if len(pa.ts) >= 2 {
			rounds = append(rounds, round{a, -1})
		}
	}
	for a, pa := range st.parts {
		for b := a + 1; b < len(st.parts); b++ {
			if len(pa.ts) > 0 && len(st.parts[b].ts) > 0 {
				rounds = append(rounds, round{a, b})
			}
		}
	}
	if len(rounds) == 0 {
		rounds = append(rounds, round{0, -1})
	}
	return rounds
}

// crossRounds decomposes the cross join of sa against sb: every part of one
// with every part of the other, with selfRounds' treatment of empty rounds.
func crossRounds(sa, sb *corpusState) []round {
	var rounds []round
	for a, pa := range sa.parts {
		for b, pb := range sb.parts {
			if len(pa.ts) > 0 && len(pb.ts) > 0 {
				rounds = append(rounds, round{a, b})
			}
		}
	}
	if len(rounds) == 0 {
		rounds = append(rounds, round{0, 0})
	}
	return rounds
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

// runRounds executes a join's rounds on the fanOut pool, streaming every pair
// through a serialised sink. A single round is the whole join: its Stats come
// back untouched. Several are rolled up into whole, which arrives carrying
// what is the whole's to say (the membership size, the one plan). The sink
// may stop the stream by returning false; that is not an error.
func runRounds(ctx context.Context, workers int, rounds []round, whole *sim.Stats, sink sim.EmitFunc,
	run func(ctx context.Context, r round, workers int, sink sim.EmitFunc) (*sim.Stats, error)) (*sim.Stats, error) {
	if len(rounds) == 1 {
		return run(ctx, rounds[0], workers, sink)
	}
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var mu sync.Mutex // serialises the sink and guards stopped and firstErr
	var stopped bool
	var firstErr error
	emit := func(p Pair) bool {
		mu.Lock()
		defer mu.Unlock()
		if stopped {
			return false
		}
		if !sink(p) {
			stopped = true
			cancel()
			return false
		}
		return true
	}
	parts := make([]*sim.Stats, len(rounds))
	fanOut(len(rounds), workers, func(i, w int) {
		stats, err := run(rctx, rounds[i], w, emit)
		mu.Lock()
		defer mu.Unlock()
		parts[i] = stats
		if err != nil && firstErr == nil {
			firstErr = err
		}
	})
	for _, p := range parts {
		foldStats(whole, p)
	}
	// An early sink stop cancels the round context by design; only the
	// caller's own cancellation (or a genuine round failure) is an error.
	switch {
	case ctx.Err() != nil:
		return whole, ctx.Err()
	case stopped:
		return whole, nil
	default:
		return whole, firstErr
	}
}

// globalPair normalises a remapped pair into canonical I < J order (positions
// in two different parts preserve no global ordering).
func globalPair(i, j, dist int) Pair {
	if i > j {
		i, j = j, i
	}
	return Pair{I: i, J: j, Dist: dist}
}

// foldStats rolls one round's statistics into the total: counters and times
// sum (CPU effort, as the engine's own task merge reports), stages merge by
// name in first-seen order, and the effective source is kept when every round
// agrees ("mixed" otherwise — a small part's token index falls back to the
// sorted loop on its own). Trees and Plan are the whole's and stay.
func foldStats(total, st *sim.Stats) {
	if st == nil {
		return
	}
	sim.AddCounters(total, st)
	switch {
	case st.Source == "":
	case total.Source == "":
		total.Source = st.Source
	case total.Source != st.Source:
		total.Source = "mixed"
	}
	for _, sg := range st.Stages {
		i := slices.IndexFunc(total.Stages, func(have sim.StageStats) bool { return have.Name == sg.Name })
		if i < 0 {
			total.Stages = append(total.Stages, sg)
			continue
		}
		total.Stages[i].In += sg.In
		total.Stages[i].Pruned += sg.Pruned
		total.Stages[i].SampledNs += sg.SampledNs
		total.Stages[i].Sampled += sg.Sampled
	}
}

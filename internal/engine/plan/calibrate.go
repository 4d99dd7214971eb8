package plan

import (
	"context"
	"time"

	"treejoin/internal/engine"
	"treejoin/internal/sim"
	"treejoin/internal/tree"
)

// Calibration bounds. The sample is a size-ordered stride of the corpus —
// it preserves the size distribution's shape (and always includes the
// largest tree, so the token index's own fallback conditions trip on the
// sample iff they trip on the corpus) while keeping the probe's cost far
// below one full join.
const (
	calSampleMax = 128
	calPairCap   = 1024
)

// calibrate fills the model's gaps for a cold corpus with a sampled probe:
// independent per-stage predicate timings over a stride of the sample's
// window pairs (unconditional kill rates, which run feedback can never give
// for stages behind other stages), plus one mini run per candidate source
// whose stats fold in as calibration-grade source and verify costs. All
// probe work routes through the run's artifact cache, so a warm corpus's
// cached signatures are read, not recomputed, and the sample's artifacts
// pre-warm the real run that follows.
func (m *Model) calibrate(req Request) {
	m.calMu.Lock()
	defer m.calMu.Unlock()
	free := req.Tokenizer != nil && req.PinSource == ""
	if m.covered(req, free) {
		return // another query calibrated while we waited
	}
	e, seen := m.calDone[req.Tau]
	if seen && e == req.Epoch {
		// A probe already ran this epoch and still left gaps (e.g. the
		// sample degenerated to the loop fallback, so no index cost
		// exists). Retrying every query would only repeat it.
		return
	}
	m.calDone[req.Tau] = req.Epoch

	ctx := req.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	sample := sampleTrees(req.Trees)

	// Per-stage probes: every stage sees the same unconditional stride of
	// window pairs, so kill rates are comparable and order-independent.
	col := engine.NewProbeCollection(ctx, sample, req.Tau, req.Cache)
	pairs := sampleWindowPairs(col, calPairCap)
	for _, s := range req.Stages {
		if ctx.Err() != nil {
			return
		}
		if len(pairs) == 0 {
			break
		}
		pred := s.Filter.Prepare(col)
		kills := 0
		start := time.Now()
		for _, p := range pairs {
			if !pred(p[0], p[1]) {
				kills++
			}
		}
		elapsed := time.Since(start)
		m.mu.Lock()
		at(m.stages, s.Name, req.Tau).fold(req.Epoch, obs{
			in:     float64(len(pairs)),
			pruned: float64(kills),
			ns:     float64(elapsed.Nanoseconds()),
			calls:  float64(len(pairs)),
		}, false)
		m.mu.Unlock()
	}

	// Mini runs: the full pipeline over the sample under each candidate
	// source, folded with the stage entries stripped — conditional stage
	// numbers from a chain run would pollute the unconditional probe rates
	// above. Results are discarded; only the costs matter. A mini index run
	// that falls back to the loop folds under its *effective* source, which
	// is exactly right: in that regime the real run falls back too.
	filters := make([]engine.PairFilter, len(req.Stages))
	for i, s := range req.Stages {
		filters[i] = s.Filter
	}
	drop := func(sim.Pair) bool { return true }
	mini := engine.Job{Filters: filters, Tau: req.Tau, Workers: 1, Cache: req.Cache}
	if st, err := mini.StreamSelf(ctx, sample, drop); err == nil {
		st.Stages = nil
		m.observe(st, sample, -1, req.Tau, req.Epoch, false)
	}
	if free {
		mini.Source = engine.TokenIndex(req.Tokenizer, nil)
		if st, err := mini.StreamSelf(ctx, sample, drop); err == nil {
			st.Stages = nil
			m.observe(st, sample, -1, req.Tau, req.Epoch, false)
		}
	}
}

// sampleTrees returns a deterministic size-ordered stride of at most
// calSampleMax trees, always including the smallest and largest.
func sampleTrees(ts []*tree.Tree) []*tree.Tree {
	if len(ts) <= calSampleMax {
		return ts
	}
	order := sim.SizeOrder(ts)
	last := len(order) - 1
	out := make([]*tree.Tree, calSampleMax)
	for k := range out {
		out[k] = ts[order[k*last/(calSampleMax-1)]]
	}
	return out
}

// sampleWindowPairs enumerates the collection's window pairs in size order
// and strides them down to at most cap — a representative spread across the
// size distribution rather than a prefix of small trees.
func sampleWindowPairs(col *engine.Collection, limit int) [][2]int {
	var all [][2]int
	for p, ti := range col.Order {
		sz := col.Trees[ti].Size()
		for q := col.WindowStart(sz); q < p; q++ {
			all = append(all, [2]int{ti, col.Order[q]})
		}
	}
	if len(all) <= limit {
		return all
	}
	out := make([][2]int, limit)
	last := len(all) - 1
	for k := range out {
		out[k] = all[k*last/(limit-1)]
	}
	return out
}

package core

import (
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"treejoin/internal/engine"
	"treejoin/internal/lcrs"
	"treejoin/internal/sim"
	"treejoin/internal/tree"
)

// PartSJ as an engine candidate source. The probe/insert loop of Algorithm 1
// (lines 3–16) runs here; the engine supplies the filter pipeline, the
// verification stage, and the worker pool. Prefilters chained in front of
// this source run before the subgraph-match tests: the first time a probe
// encounters an indexed tree, the pair goes through the filter chain, and a
// pruned pair is stamped so none of its subgraph entries are ever
// match-tested — a cheap statistics screen (HIST) thus saves both match and
// verification work.
//
// Decomposition (the paper's §6 future work: "the adaption of our techniques
// to parallel and distributed settings"): with shards > 1, a self join is cut
// into S contiguous shards of the size-sorted order; every result pair is
// either internal to one shard or crosses exactly one shard pair, so the
// join decomposes into S intra-shard tasks plus at most S·(S−1)/2 cross
// tasks — the classic fragment-and-replicate plan, with tasks whose size
// ranges are further than τ apart skipped entirely. Each task builds its own
// index (the price of shared-nothing tasks, exactly what a distributed
// deployment would pay); the engine runs them on the worker pool. With
// shards ≤ 1 the source is a single sequential task, with the partitioning
// pre-pass parallelised across the pool.

// NewSource returns the PartSJ inverted-subgraph-index candidate source
// configured by opts (Tau and the verification fields are ignored here; the
// engine owns them).
func NewSource(opts Options) engine.CandidateSource { return partSJSource{opts: opts} }

type partSJSource struct{ opts Options }

func (s partSJSource) Name() string { return "partsj" }

func (s partSJSource) Tasks(c *engine.Collection, shards int) []engine.Task {
	if len(c.Order) == 0 {
		return nil
	}
	if c.Cross() {
		// Collection cross join: one task over the union order, one index
		// per side. (Sharding a cross join would follow the same plan as the
		// self join; no caller needs it yet.)
		return []engine.Task{func(px *engine.Pipeline) {
			j := newJoiner(c, s.opts)
			j.prepartition(px.Stats(), c.Workers)
			j.runLoop(px, c.Order, func(k int) int {
				if c.Order[k] < c.Split {
					return 0
				}
				return 1
			}, 2)
		}}
	}
	if shards > len(c.Order) {
		shards = len(c.Order)
	}
	if shards <= 1 {
		return []engine.Task{func(px *engine.Pipeline) {
			j := newJoiner(c, s.opts)
			j.prepartition(px.Stats(), c.Workers)
			j.runLoop(px, c.Order, nil, 1)
		}}
	}
	return s.shardTasks(c, shards)
}

// shardTasks builds the fragment-and-replicate plan over the size-sorted
// order.
func (s partSJSource) shardTasks(c *engine.Collection, shards int) []engine.Task {
	n := len(c.Order)
	bounds := make([]int, shards+1)
	for k := 0; k <= shards; k++ {
		bounds[k] = k * n / shards
	}
	seg := func(k int) []int { return c.Order[bounds[k]:bounds[k+1]] }
	loSize := make([]int, shards)
	hiSize := make([]int, shards)
	for k := 0; k < shards; k++ {
		ids := seg(k)
		loSize[k] = c.Trees[ids[0]].Size()
		hiSize[k] = c.Trees[ids[len(ids)-1]].Size()
	}
	var tasks []engine.Task
	for a := 0; a < shards; a++ {
		ids := seg(a)
		tasks = append(tasks, func(px *engine.Pipeline) {
			j := newJoiner(c, s.opts)
			j.runLoop(px, ids, nil, 1)
		})
		for b := a + 1; b < shards; b++ {
			if loSize[b]-hiSize[a] > c.Tau { // size windows cannot overlap
				continue
			}
			// Shard a wholly precedes shard b in the sorted order, so their
			// concatenation is still size-ordered; side = which shard.
			la, lb := seg(a), seg(b)
			merged := make([]int, 0, len(la)+len(lb))
			merged = append(merged, la...)
			merged = append(merged, lb...)
			na := len(la)
			tasks = append(tasks, func(px *engine.Pipeline) {
				j := newJoiner(c, s.opts)
				j.runLoop(px, merged, func(k int) int {
					if k < na {
						return 0
					}
					return 1
				}, 2)
			})
		}
	}
	return tasks
}

// Per-probe pair states packed into the state stamps: a stamp is
// gen<<2 | code, so one zeroed array serves all probes (gen starts at 1) and
// each pair is screened at most once and emitted at most once per probe.
const (
	stPassed  = 1 // filter chain consulted, pair survived; match tests pending
	stKilled  = 2 // filter chain pruned the pair; skip its remaining entries
	stEmitted = 3 // pair emitted as a candidate; skip its remaining entries
)

// joiner holds one task's mutable PartSJ state: per-tree caches of the
// binary view and partition, and the per-probe pair-state stamps. All are
// indexed by the tree's collection id — sharded tasks touch only their
// shards' slots, trading O(collection) zeroed allocations per task for
// O(1) lookups with no remapping.
//
// Binary views and partitions also go through the run's artifact cache:
// views are τ-independent ("lcrs") and partitions are keyed by δ, so a
// corpus-backed join reuses both across runs (and sharded tasks share them
// within one run) while a changed threshold recomputes only the partitions.
// The random-partition ablation bypasses the partition cache — its output
// depends on the RNG stream, not just (tree, δ).
type joiner struct {
	c       *engine.Collection
	opts    Options
	delta   int
	partKey string
	bins    []*lcrs.Bin
	parts   []*Partition
	state   []int64
	gen     int64
	sc      matchScratch
	st      partitionState
	rng     *rand.Rand
}

func newJoiner(c *engine.Collection, opts Options) *joiner {
	n := len(c.Trees)
	j := &joiner{
		c:       c,
		opts:    opts,
		delta:   opts.delta(),
		partKey: partitionCacheKey(opts.delta()),
		bins:    make([]*lcrs.Bin, n),
		parts:   make([]*Partition, n),
		state:   make([]int64, n),
		gen:     1,
	}
	if opts.RandomPartition {
		j.rng = rand.New(rand.NewSource(opts.Seed))
	}
	return j
}

// partitionCacheKey names the artifact-cache entry of a δ-partition.
func partitionCacheKey(delta int) string {
	return "partsj/delta=" + strconv.Itoa(delta)
}

// cachedBin returns t's left-child/right-sibling view from the artifact
// cache, building and storing it on a miss. The single lookup-or-build path
// for every PartSJ consumer (join source, search index, incremental
// stream); a nil cache degrades to a plain build.
func cachedBin(cache *engine.Cache, t *tree.Tree) *lcrs.Bin {
	if v, ok := cache.Lookup("lcrs", t); ok {
		return v.(*lcrs.Bin)
	}
	b := lcrs.Build(t)
	cache.Store("lcrs", t, b)
	return b
}

// cachedPartition returns t's δ-partition (the tree must have ≥ δ nodes)
// from the artifact cache, computing it on a miss — from b when the caller
// already has the binary view in hand, otherwise from the cached one.
// partKey must be partitionCacheKey(delta); st is the caller's partitioning
// scratch.
func cachedPartition(cache *engine.Cache, t *tree.Tree, b *lcrs.Bin, partKey string, delta int, st *partitionState) *Partition {
	if v, ok := cache.Lookup(partKey, t); ok {
		return v.(*Partition)
	}
	if b == nil {
		b = cachedBin(cache, t)
	}
	p := compute(b, delta, st)
	cache.Store(partKey, t, p)
	return p
}

// bin returns tree ti's binary view, from the task-local slot or the shared
// artifact cache.
func (j *joiner) bin(ti int) *lcrs.Bin {
	if b := j.bins[ti]; b != nil {
		return b
	}
	b := cachedBin(j.c.Cache(), j.c.Trees[ti])
	j.bins[ti] = b
	return b
}

// partition returns tree ti's δ-partition (the tree must have ≥ δ nodes),
// cached like bin. Random partitions are rebuilt every time — their output
// depends on the RNG stream, not just (tree, δ). st is the caller's
// partitioning scratch.
func (j *joiner) partition(ti int, st *partitionState) *Partition {
	if p := j.parts[ti]; p != nil {
		return p
	}
	var p *Partition
	if j.rng != nil {
		p = ComputeRandom(j.bin(ti), j.delta, j.rng)
	} else {
		p = cachedPartition(j.c.Cache(), j.c.Trees[ti], j.bins[ti], j.partKey, j.delta, st)
		j.bins[ti] = p.Bin
	}
	j.parts[ti] = p
	return p
}

// prepartition builds the binary views and balanced partitions of every tree
// on a worker pool before the sequential probe/insert loop — the loop's only
// embarrassingly parallel phase (the multi-core direction of the paper's
// future work). A no-op unless workers > 1; the random-partition ablation
// stays sequential to keep its RNG stream deterministic. Sharded plans skip
// it: their tasks already saturate the pool.
func (j *joiner) prepartition(stats *sim.Stats, workers int) {
	ts := j.c.Trees
	if workers <= 1 || j.rng != nil || len(ts) == 0 {
		return
	}
	start := time.Now()
	if workers > len(ts) {
		workers = len(ts)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var st partitionState
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ts) {
					return
				}
				if j.c.Cancelled() {
					return
				}
				j.bin(i)
				if ts[i].Size() >= j.delta {
					j.partition(i, &st)
				}
			}
		}()
	}
	wg.Wait()
	stats.PartitionTime += time.Since(start)
}

// runLoop is the probe/insert loop over the given tree indices (ascending
// size order). sideAt maps an iteration position to its side (nil: all side
// 0); a tree probes the opposite side's index and is inserted into its own,
// so with one side every preceding pair is offered and with two sides only
// cross pairs are.
func (j *joiner) runLoop(px *engine.Pipeline, positions []int, sideAt func(k int) int, nSides int) {
	side := func(k int) int {
		if sideAt == nil {
			return 0
		}
		return sideAt(k)
	}
	nodes := make([]int, nSides) // per side, what its index's arena must hold
	for k, ti := range positions {
		nodes[side(k)] += j.c.Trees[ti].Size()
	}
	ixes := make([]*invIndex, nSides)
	smalls := make([][]int, nSides)
	for i := range ixes {
		ixes[i] = newInvIndex(j.opts.Tau, j.opts.Position, nodes[i])
	}
	defer func() {
		for _, ix := range ixes {
			px.Stats().IndexedSubgraphs += ix.n
		}
	}()
	for k, ti := range positions {
		if px.Cancelled() {
			return
		}
		s := side(k)
		probe := (nSides - 1) - s*(nSides-1) // 0 for self joins, 1-s for cross
		j.probeAndCollect(px, ti, ixes[probe], smalls[probe])
		j.insert(px, ti, ixes[s], &smalls[s])
	}
}

// probeAndCollect gathers the candidate partners of tree ti among the trees
// already inserted into ix and smalls (Algorithm 1 lines 5–10). Pairs pass
// the filter chain before any subgraph-match test.
func (j *joiner) probeAndCollect(px *engine.Pipeline, ti int, ix *invIndex, smalls []int) {
	if ix.n == 0 && len(smalls) == 0 {
		return // nothing indexed yet (e.g. the smaller side of a cross task)
	}
	stats := px.Stats()
	start := time.Now()
	ts := j.c.Trees
	t := ts[ti]
	b := j.bin(ti)
	sz := t.Size()
	gen := j.gen
	j.gen++
	// Small-tree fallback: trees below δ nodes were never indexed.
	for _, other := range smalls {
		if ts[other].Size() >= sz-j.opts.Tau && j.state[other]>>2 != gen {
			j.state[other] = gen<<2 | stEmitted
			if px.Screen(ti, other) {
				stats.SmallTreeFallback++
				px.Emit(ti, other)
			}
		}
	}
	minSize := sz - j.opts.Tau
	if minSize < 1 {
		minSize = 1
	}
	for _, n := range b.Order {
		stats.SubgraphProbes += ix.probe(b, n, minSize, sz, func(e posting) {
			switch st := j.state[e.tree]; {
			case st>>2 != gen:
				if !px.Screen(ti, int(e.tree)) {
					j.state[e.tree] = gen<<2 | stKilled
					return
				}
				j.state[e.tree] = gen<<2 | stPassed
			case st&3 != stPassed: // already emitted or killed this probe
				return
			}
			stats.MatchTests++
			if ix.matches(e, b, n, &j.sc) {
				stats.MatchHits++
				j.state[e.tree] = gen<<2 | stEmitted
				px.Emit(ti, int(e.tree))
			}
		})
	}
	stats.CandTime += time.Since(start)
}

// insert partitions tree ti and adds its subgraphs to ix (Algorithm 1 lines
// 13–16), or records it as a small tree.
func (j *joiner) insert(px *engine.Pipeline, ti int, ix *invIndex, smalls *[]int) {
	stats := px.Stats()
	start := time.Now()
	ts := j.c.Trees
	if ts[ti].Size() >= j.delta {
		ix.insert(ti, j.partition(ti, &j.st))
	} else {
		*smalls = append(*smalls, ti)
	}
	stats.PartitionTime += time.Since(start)
}

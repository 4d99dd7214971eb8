// Package engine is the composable join pipeline every exact similarity-join
// method in this module runs on. The paper frames PartSJ and its baselines
// alike as one filter-then-verify loop over a size-ordered collection; this
// package implements that loop exactly once:
//
//	CandidateSource ──► PairFilter chain ──► parallel TED verification
//
// A CandidateSource enumerates the pairs its own pruning cannot rule out (the
// PartSJ inverted subgraph index, or the sorted nested loop with the size
// window). A PairFilter is a cheap pair-level test backed by a sound TED
// lower bound — pruning a pair must prove its distance exceeds τ — so any
// chain of filters in front of any source leaves the result set untouched.
// Surviving candidates are verified with the exact bounded TED.
//
// The engine owns everything the five former copies of the loop implemented
// divergently: self joins and cross joins, sequential and parallel candidate
// generation (sources decompose into independent tasks executed on a worker
// pool), parallel verification, per-stage statistics attribution, and
// canonical result ordering. Adding a filter, a backend, or a parallelisation
// strategy means writing one stage, not a sixth loop; see DESIGN.md.
package engine

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"treejoin/internal/sim"
	"treejoin/internal/ted"
	"treejoin/internal/tree"
)

// Collection is the engine's view of the trees being joined: the combined
// collection, the TED threshold, the indexed side's ascending-size order
// (Algorithm 1's processing order) and the trees that probe it — a self
// join's collection is both, a cross join's receiver A is indexed and probed
// by every tree of B. It is immutable during a run and shared by all tasks.
type Collection struct {
	// Trees is the combined collection. For a cross join it is A ++ B; for a
	// self join it is the collection itself.
	Trees []*tree.Tree
	// Tau is the TED threshold τ ≥ 0.
	Tau int
	// Order holds the indexed side's tree indices sorted by ascending size
	// (ties by index): the indexed trees are Trees[:len(Order)].
	Order []int
	// Probes holds the probing trees: Order itself for a self join, B's
	// trees by ascending size for a cross join.
	Probes []int
	// Workers is the worker-pool width the job runs with (≥ 1, normalized
	// from Job.Workers: unset or negative counts become GOMAXPROCS).
	// Sources that can decompose candidate generation cheaply use it as
	// their default task count.
	Workers int

	ctx      context.Context
	cache    *Cache
	filters  []PairFilter // the job's chain: the token index decides its bag stage (bagProbe)
	sizes    []int        // sizes in Order order, for binary-searching the window
	counters *ted.Counters
}

// Cancelled reports whether the run's context has been cancelled — by the
// caller's deadline or cancel, or by a streaming consumer that stopped
// iterating. Sources check it between probes and abandon their loops early;
// the engine then returns whatever statistics accumulated.
func (c *Collection) Cancelled() bool { return c.ctx.Err() != nil }

// Context returns the run's context, for a source that waits on something
// other than its own loops (a shared index another run is still building).
func (c *Collection) Context() context.Context { return c.ctx }

// Cache returns the run's artifact cache. A corpus-backed run shares the
// corpus cache across joins; a one-shot run gets a private cache that at
// least lets concurrent tasks of the same join share per-tree artifacts.
func (c *Collection) Cache() *Cache { return c.cache }

// Bound returns the top of probe tree ti's size window: partners of at most
// hi nodes, of exactly hi only those numbered below tie. A probe from the
// indexed side (a self join's) meets the trees before it in Order, what
// Algorithm 1's on-the-fly index held on reaching it; one from B every tree
// of A up to τ larger.
func (c *Collection) Bound(ti int) (hi, tie int) {
	if ti < len(c.Order) {
		return c.Trees[ti].Size(), ti
	}
	return c.Trees[ti].Size() + c.Tau, math.MaxInt32
}

// window returns the positions [lo, hi) of Order that hold probe tree ti's
// partners: from the first tree of at least |ti| − τ nodes up to Bound.
func (c *Collection) window(ti int) (lo, hi int) {
	top, tie := c.Bound(ti)
	lo = sort.SearchInts(c.sizes, c.Trees[ti].Size()-c.Tau)
	hi = lo + sort.Search(len(c.Order)-lo, func(k int) bool {
		return c.sizes[lo+k] > top || c.sizes[lo+k] == top && c.Order[lo+k] >= tie
	})
	return lo, hi
}

func newCollection(ctx context.Context, ts []*tree.Tree, split, tau, workers int, cache *Cache) *Collection {
	workers = sim.NormalizeWorkers(workers)
	if cache == nil {
		cache = NewCache()
	}
	c := &Collection{Trees: ts, Tau: tau, Workers: workers, ctx: ctx, cache: cache, counters: new(ted.Counters)}
	n := len(ts)
	if split >= 0 {
		n = split
	}
	c.Order, c.Probes = sim.SizeOrder(ts[:n]), sim.SizeOrder(ts[n:])
	c.sizes = make([]int, len(c.Order))
	for p, ti := range c.Order {
		c.sizes[p] = ts[ti].Size()
	}
	for k := range c.Probes {
		c.Probes[k] += n
	}
	if split < 0 {
		c.Probes = c.Order
	}
	return c
}

// PairFilter is one pipeline stage: a cheap pair-level test that may prune a
// pair only when a sound TED lower bound proves its distance exceeds τ.
// Prepare runs once per join over the combined collection and returns the
// predicate; the predicate must be safe for concurrent use (the engine calls
// it from every candidate-generation task).
type PairFilter interface {
	// Name labels the stage in Stats.Stages.
	Name() string
	// Prepare precomputes per-tree state and returns the pair predicate:
	// keep(i, j) reports whether the pair may be within c.Tau.
	Prepare(c *Collection) func(i, j int) bool
}

// funcFilter adapts a name and prepare function to the PairFilter interface.
type funcFilter struct {
	name    string
	prepare func(c *Collection) func(i, j int) bool
}

func (f funcFilter) Name() string                              { return f.name }
func (f funcFilter) Prepare(c *Collection) func(i, j int) bool { return f.prepare(c) }

// NewFilter builds a PairFilter from a name and a prepare function.
func NewFilter(name string, prepare func(c *Collection) func(i, j int) bool) PairFilter {
	return funcFilter{name: name, prepare: prepare}
}

// Task is one independent unit of candidate generation. Tasks run
// concurrently on the worker pool, each with its own Pipeline.
type Task func(px *Pipeline)

// CandidateSource enumerates the candidate pairs of a join.
type CandidateSource interface {
	// Name labels the source in diagnostics.
	Name() string
	// Tasks decomposes candidate generation into independent units — the
	// source's natural decomposition: a single sequential task, or a split
	// across c.Workers when the tasks share no mutable state. Together the
	// tasks must offer every unordered candidate pair exactly once.
	Tasks(c *Collection) []Task
}

// emitter is the serialised result stream of one run: every verified pair —
// from any task's inline flush or from the final pool-wide verification pass
// — funnels through emit, which remaps cross-join indices and hands the pair
// to the consumer's sink (every source offers a pair at most once, so there
// is nothing to deduplicate). A sink that returns false stops the run: the
// emitter cancels the run context and sources abandon their loops.
type emitter struct {
	mu      sync.Mutex
	sink    sim.EmitFunc
	split   int   // ≥ 0: cross join, remap J to the B side
	n       int64 // pairs delivered to the sink
	stopped bool
	cancel  context.CancelFunc
}

func (e *emitter) emit(p sim.Pair) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stopped {
		return false
	}
	if e.split >= 0 {
		// Combined A indices precede B indices, so Pair.I is the A element
		// already; J maps back to its per-collection position.
		p.J -= e.split
	}
	e.n++
	if !e.sink(p) {
		e.stopped = true
		e.cancel()
		return false
	}
	return true
}

// Pipeline is a task's private view of the filter chain and candidate sink.
// Screen runs the filters over a pair (with per-stage accounting); Emit
// records a surviving pair for verification; Offer combines the two. Sources
// that interleave their own pair-level work with the filters (PartSJ runs
// subgraph-match tests after the prefilters) call Screen and Emit separately
// so the chain prunes a pair before the source spends effort on it.
type Pipeline struct {
	c       *Collection
	preds   []func(i, j int) bool
	counts  []sim.StageStats
	cands   []sim.Candidate
	stats   sim.Stats
	inProbe bagProbe

	// Sequential jobs verify candidates in bounded chunks as they are
	// emitted (Algorithm 1's interleaving, generalised), streaming results
	// to the emitter with peak candidate memory O(flushAt) instead of
	// O(total candidates). Parallel jobs set flushAt = 0 and defer everything
	// to the pool-wide pass after the tasks, where the bigger batch
	// load-balances better.
	flushAt    int
	vfactory   sim.BatchVerifierFactory
	em         *emitter
	inlineTime time.Duration
}

// Cancelled reports whether the run should stop: the caller cancelled its
// context or a streaming consumer stopped iterating. Sources check it
// between probes.
func (px *Pipeline) Cancelled() bool { return px.c.Cancelled() }

// flushCandidates verifies the buffered candidates inline, streaming
// confirmed pairs to the emitter. Inline time is remembered so the engine can
// carve it back out of the source's candidate-generation clock (flushes
// happen inside the source's timed loop).
func (px *Pipeline) flushCandidates() {
	start := time.Now()
	sim.VerifyStreamBatched(px.c.ctx, px.cands, px.c.Tau, px.vfactory, 1, &px.stats, px.em.emit)
	px.cands = px.cands[:0]
	px.inlineTime += time.Since(start)
}

// Collection returns the shared collection view.
func (px *Pipeline) Collection() *Collection { return px.c }

// Stats returns the task-local statistics sink; sources add their own
// counters (index probes, match tests, partition time) here. The engine
// merges all task sinks into the join's Stats.
func (px *Pipeline) Stats() *sim.Stats { return &px.stats }

// Screen runs the filter chain over pair (i, j) and reports whether it
// survives every stage. Each pair must be screened at most once per join.
func (px *Pipeline) Screen(i, j int) bool {
	for k := range px.preds {
		px.counts[k].In++
		if !px.keep(k, i, j) {
			px.counts[k].Pruned++
			return false
		}
	}
	return true
}

// keep runs stage k over pair (i, j): its predicate, or — the token index's
// own bag stage, inside one of its probes, i being the probe's tree — the
// probe's mark (bagProbe).
func (px *Pipeline) keep(k, i, j int) bool {
	if px.inProbe.mark != nil && k == px.inProbe.at {
		return px.inProbe.keep(j)
	}
	return px.preds[k](i, j)
}

// Emit records pair (i, j) — combined indices, either order — as a candidate
// for TED verification. Callers must have screened the pair.
func (px *Pipeline) Emit(i, j int) {
	px.cands = append(px.cands, sim.Candidate{I: i, J: j})
	if px.flushAt > 0 && len(px.cands) >= px.flushAt {
		px.flushCandidates()
	}
}

// Offer screens pair (i, j) and emits it when it survives.
func (px *Pipeline) Offer(i, j int) {
	if px.Screen(i, j) {
		px.Emit(i, j)
	}
}

// Job describes one join execution: the source, the filter chain, the
// threshold, and the execution knobs. The zero Source means SortedLoop.
type Job struct {
	// Source enumerates candidates; nil means SortedLoop().
	Source CandidateSource
	// Filters is the pipeline the source's pairs must survive, in order.
	Filters []PairFilter
	// Tau is the TED threshold τ ≥ 0.
	Tau int
	// Verifier decides candidate pairs; nil installs the default τ-banded
	// TED verifier over arena views cached in the run's Cache.
	Verifier sim.Verifier
	// Workers sizes the worker pool used for candidate generation and TED
	// verification; 1 runs sequentially, and values below 1 ("unset") are
	// normalized to runtime.GOMAXPROCS(0).
	Workers int
	// Cache, when non-nil, is the artifact cache shared across runs (a
	// corpus's cache): per-tree filter signatures and source artifacts are
	// looked up there before being recomputed. nil gives the run a private
	// cache.
	Cache *Cache
}

// Plan is the job's execution-plan record, which every run stamps into
// Stats.Plan: its source's name without the parenthesised tokenizer
// ("token-index(labels)" is "token-index"; a nil source is "sorted-loop") and
// its filter chain in order.
func (job Job) Plan() sim.PlanRecord {
	source := job.Source
	if source == nil {
		source = SortedLoop()
	}
	rec := sim.PlanRecord{Chain: make([]string, len(job.Filters))}
	rec.Source, _, _ = strings.Cut(source.Name(), "(")
	for i, f := range job.Filters {
		rec.Chain[i] = f.Name()
	}
	return rec
}

// SelfJoin runs the job over one collection and reports every unordered pair
// within Tau, in canonical ascending (I, J) order.
//
// It is the uncancellable materialising form of StreamSelf — the collecting
// form the experiment harness and tests run; it panics on a negative
// threshold.
func (job Job) SelfJoin(ts []*tree.Tree) ([]sim.Pair, *sim.Stats) {
	return job.collect(context.Background(), ts, -1)
}

// Join runs the job as a cross join: every pair (a ∈ A, b ∈ B) within Tau,
// with Pair.I indexing into a and Pair.J into b; a is the indexed side, which
// every tree of b probes. Both collections must share one label table. Like
// SelfJoin, it is the uncancellable materialising form of StreamJoin and
// panics on a negative threshold.
func (job Job) Join(a, b []*tree.Tree) ([]sim.Pair, *sim.Stats) {
	return job.collect(context.Background(), slices.Concat(a, b), len(a))
}

// StreamSelf runs the job over one collection, handing each result pair to
// sink as the pipeline confirms it — no materialised result slice, no
// ordering guarantee (use SelfJoin or sort afterwards for the canonical
// order). A sink returning false stops the run early; that is not an error.
// Cancelling ctx aborts the run promptly and returns ctx's error together
// with the statistics accumulated so far.
func (job Job) StreamSelf(ctx context.Context, ts []*tree.Tree, sink sim.EmitFunc) (*sim.Stats, error) {
	return job.stream(ctx, ts, -1, sink)
}

// StreamJoin is StreamSelf for a cross join of two collections; Pair.I
// indexes into a and Pair.J into b.
func (job Job) StreamJoin(ctx context.Context, a, b []*tree.Tree, sink sim.EmitFunc) (*sim.Stats, error) {
	return job.stream(ctx, slices.Concat(a, b), len(a), sink)
}

// collect materialises a stream into the canonical sorted slice; a
// validation failure panics.
func (job Job) collect(ctx context.Context, ts []*tree.Tree, split int) ([]sim.Pair, *sim.Stats) {
	var results []sim.Pair
	stats, err := job.stream(ctx, ts, split, func(p sim.Pair) bool {
		results = append(results, p)
		return true
	})
	if err != nil {
		panic(err)
	}
	sim.SortPairs(results)
	return results, stats
}

func (job Job) stream(outer context.Context, ts []*tree.Tree, split int, sink sim.EmitFunc) (*sim.Stats, error) {
	stats := &sim.Stats{Trees: len(ts)}
	if job.Tau < 0 {
		return stats, fmt.Errorf("engine: negative threshold %d", job.Tau)
	}
	// The run context is cancelled either from outside or by the emitter
	// when the sink stops the stream; sources poll it between probes.
	ctx, cancel := context.WithCancel(outer)
	defer cancel()
	source := job.Source
	if source == nil {
		source = SortedLoop()
	}
	stats.Plan = job.Plan()
	em := &emitter{sink: sink, split: split, cancel: cancel}
	c := newCollection(ctx, ts, split, job.Tau, job.Workers, job.Cache)
	c.filters = job.Filters

	// Prepare the filter chain once over the combined collection; stage
	// preparation time is candidate-generation effort. One stage's
	// preparation is the engine's largest uncancellable unit (a cold
	// corpus computes every tree's signature here), so check the context
	// between stages rather than starting work the caller abandoned.
	start := time.Now()
	preds := make([]func(i, j int) bool, len(job.Filters))
	for k, f := range job.Filters {
		if err := outer.Err(); err != nil {
			stats.CandTime += time.Since(start)
			stats.CandWall += time.Since(start)
			return stats, err
		}
		preds[k] = f.Prepare(c)
	}
	stats.CandTime += time.Since(start)
	stats.CandWall += time.Since(start)

	var vfactory sim.BatchVerifierFactory
	if job.Verifier != nil {
		// A custom verifier (a test's instrumentation) runs through the same
		// batched stage, adapted statelessly.
		vfactory = sim.AdaptVerifier(ts, job.Verifier)
	} else {
		// The arena views are τ-independent per-tree signatures like any
		// filter's: compute (or warm-hit) every tree's now, so the corpus
		// contract — a later join recomputes no per-tree signature — covers
		// the verifier too, and per-candidate lookups stay lock-free. Like a
		// filter stage's preparation, this is an uncancellable unit — check
		// the context first rather than starting work the caller abandoned.
		if err := outer.Err(); err != nil {
			return stats, err
		}
		vstart := time.Now()
		vfactory = NewArenaVerifiers(ArenaFor(c.cache, ts, c.Workers), c.counters)
		stats.VerifyTime += time.Since(vstart)
	}
	stats.Source = source.Name()
	// Decomposing is part of the stage's wall clock: a cross join's token
	// source ranks the partner's bags there.
	tasksStart := time.Now()
	tasks := source.Tasks(c)
	flushAt := 0
	if c.Workers <= 1 {
		flushAt = inlineFlushChunk
	}
	pipes := make([]*Pipeline, len(tasks))
	for i := range pipes {
		px := &Pipeline{
			c:        c,
			preds:    preds,
			counts:   make([]sim.StageStats, len(job.Filters)),
			flushAt:  flushAt,
			vfactory: vfactory,
			em:       em,
		}
		for k, f := range job.Filters {
			px.counts[k].Name = f.Name()
		}
		pipes[i] = px
	}
	runTasks(tasks, pipes, c.Workers)
	tasksWall := time.Since(tasksStart)

	// Merge task-local candidates and statistics. Stage counters merge by
	// position: every pipeline carries the same chain. Inline verification
	// ran inside the sources' timed loops, so its elapsed time moves from
	// the candidate-generation clock to the verification clock (where the
	// verify stage already recorded it) — and is carved out of the stage's
	// wall clock the same way.
	stats.Stages = make([]sim.StageStats, len(job.Filters))
	for k, f := range job.Filters {
		stats.Stages[k].Name = f.Name()
	}
	var cands []sim.Candidate
	var inline time.Duration
	for _, px := range pipes {
		cands = append(cands, px.cands...)
		px.stats.CandTime -= px.inlineTime
		inline += px.inlineTime
		sim.AddCounters(stats, &px.stats)
		for k := range px.counts {
			stats.Stages[k].In += px.counts[k].In
			stats.Stages[k].Pruned += px.counts[k].Pruned
		}
	}
	stats.CandWall += tasksWall - inline
	sim.VerifyStreamBatched(ctx, cands, job.Tau, vfactory, c.Workers, stats, em.emit)
	stats.Results = em.n
	sim.AddVerifyCounters(stats, c.counters)
	if err := outer.Err(); err != nil {
		return stats, err
	}
	return stats, nil
}

// inlineFlushChunk is the candidate-buffer bound of sequential jobs: large
// enough to amortise the per-batch clock reads, small enough that a
// paper-scale join never holds more than a sliver of its candidates.
const inlineFlushChunk = 4096

// probeTasksPerWorker is how many chunks of the size order each worker gets
// to pull from a frozen index's probe: enough that the last, largest trees do
// not leave one worker probing alone.
const probeTasksPerWorker = 4

// ProbeChunks decomposes a build-then-probe source: it cuts the probing trees
// (Probes) into contiguous chunks of about equal total weight (weight(ti) > 0
// stands for what probing tree ti costs) — several per worker, one for a
// sequential job — and returns one task per chunk, running probe over the
// positions [lo, hi) of Probes.
func ProbeChunks(c *Collection, weight func(ti int) int, probe func(px *Pipeline, lo, hi int)) []Task {
	n := len(c.Probes)
	chunks := 1
	if c.Workers > 1 {
		chunks = probeTasksPerWorker * c.Workers
	}
	chunks = min(chunks, n)
	total := 0
	for _, ti := range c.Probes {
		total += weight(ti)
	}
	tasks := make([]Task, 0, chunks)
	lo, sum := 0, 0
	for k, ti := range c.Probes {
		sum += weight(ti)
		// Close a chunk once it has its share of the weight, or when the trees
		// left are only enough for one each in the chunks still to come.
		if done := len(tasks) + 1; sum*chunks >= done*total || n-k-1 <= chunks-done {
			from, to := lo, k+1
			tasks = append(tasks, func(px *Pipeline) { probe(px, from, to) })
			lo = to
		}
	}
	return tasks
}

// runTasks executes the tasks on a pool of at most workers goroutines, each
// pulling the next task until none is left; one task (or one worker) runs
// inline.
func runTasks(tasks []Task, pipes []*Pipeline, workers int) {
	if workers <= 1 || len(tasks) <= 1 {
		for i, t := range tasks {
			t(pipes[i])
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(workers, len(tasks)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(tasks)); i = next.Add(1) - 1 {
				tasks[i](pipes[i])
			}
		}()
	}
	wg.Wait()
}

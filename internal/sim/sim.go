// Package sim holds the plumbing shared by every similarity-join method in
// this module: result pairs, per-phase statistics, size-ordered processing,
// and a parallel TED verification stage.
package sim

import (
	"cmp"
	"context"
	"runtime"
	"slices"
	"sync"
	"time"

	"treejoin/internal/ted"
	"treejoin/internal/tree"
)

// Pair is one similarity-join result: trees I and J (indices into the joined
// collection, I < J) with TED Dist ≤ τ.
type Pair struct {
	I, J int
	Dist int
}

// SortPairs orders pairs by (I, J); all join methods return this canonical
// order so results can be compared directly.
func SortPairs(ps []Pair) {
	slices.SortFunc(ps, func(a, b Pair) int { return cmp.Or(cmp.Compare(a.I, b.I), cmp.Compare(a.J, b.J)) })
}

// ComparePairsByDist orders pairs by (Dist, I, J): the top-k result order.
func ComparePairsByDist(a, b Pair) int {
	return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.I, b.I), cmp.Compare(a.J, b.J))
}

// ExpandTau is the expanding-threshold driver behind every threshold-free
// query (top-k pairs, k nearest trees). A round at threshold τ is complete
// for distances ≤ τ, so as soon as one produces k hits the k best of them are
// the global answer — anything unseen is farther than τ, hence farther than
// the k-th hit. Rounds start at 1 and double, clamped to tauCap (the largest
// distance any hit can have), so the total work is dominated by the last
// round — the one a clairvoyant caller with the right τ would have paid for
// anyway. The final round's hits come back ordered by order and cut to k. A
// round that fails ends the search with its error and whatever hits it
// returned beside it, ordered and cut the same way: a caller that wants
// nothing on failure returns nil from round.
func ExpandTau[T any](tauCap, k int, order func(a, b T) int, round func(tau int) ([]T, error)) ([]T, error) {
	for tau := 1; ; tau = min(2*tau, tauCap) {
		hits, err := round(tau)
		if err != nil || len(hits) >= k || tau >= tauCap {
			slices.SortFunc(hits, order)
			return hits[:min(k, len(hits))], err
		}
	}
}

// StageStats attributes filtering work to one pipeline stage: how many pairs
// the stage was offered and how many it killed. The engine records one entry
// per executed filter, in the order the stages actually ran, so a filter
// chain's ablation (which stage does the pruning) reads directly off a join's
// Stats.
type StageStats struct {
	Name   string // filter name, e.g. "HIST"
	In     int64  // pairs offered to the stage
	Pruned int64  // pairs the stage eliminated
}

// Out returns the number of pairs that survived the stage.
func (s StageStats) Out() int64 { return s.In - s.Pruned }

// PlanRecord describes the execution plan a run was given: which candidate
// source its method configures and the filter chain in executed order — the
// prefilters, then the method's own stage.
type PlanRecord struct {
	Source string
	Chain  []string
}

// Stats records where a join spent its effort; the split between candidate
// generation and TED verification is the quantity the paper's Figures 10/12
// plot.
type Stats struct {
	Trees      int           // collection size
	Candidates int64         // pairs that reached the TED verifier
	Results    int64         // pairs with TED ≤ τ
	CandTime   time.Duration // candidate generation (filtering) time, summed across tasks (CPU effort)
	// VerifyTime is exact TED computation time: the wall clock of the
	// pool-wide verification pass, plus that of each chunk a sequential
	// task verified inline while its source was still running.
	VerifyTime time.Duration

	// CandWall is the wall-clock time of the candidate-generation stage:
	// filter preparation plus the elapsed time of the source's task pool,
	// with inline verification carved out. CandTime sums each task's own
	// clock, so on a multi-core run it measures CPU effort and can exceed
	// the wall clock; CandWall is what the user waited.
	CandWall time.Duration

	// Source names the candidate source that ran ("sorted-loop",
	// "partsj", or "token-index" with its tokenizer in parentheses): the
	// plan's source, Plan.Source, with that suffix.
	Source string

	// Stages holds per-filter attribution when the join ran a filter
	// pipeline: one entry per stage, in the order the stages ran.
	Stages []StageStats

	// Plan records the execution plan behind the run (source and executed
	// filter order); see PlanRecord. Stamped on every run.
	Plan PlanRecord

	// PartSJ-specific counters (zero for the baselines).
	PartitionTime     time.Duration // δ-partitioning and indexing of all trees; 0 when the corpus already held the index
	IndexedSubgraphs  int64         // index postings created: one per subgraph
	SubgraphProbes    int64         // index postings visited: those passing the size, position and tie tests, a fraction of those scanned
	MatchTests        int64         // full subgraph-match verifications run
	MatchHits         int64         // match tests that succeeded
	SmallTreeFallback int64         // candidate pairs produced by the small-tree path

	// Token-index source counters (zero unless the join's candidates came
	// from engine.TokenIndex). IndexBuildTime is the build's wall time, also
	// where it is charged to CandTime's CPU-effort sum — a breakdown, not an
	// addition to Total: of CandTime for the token index (tokenisation, ranking,
	// posting), of PartitionTime for PartSJ's — 0 when it was already built.
	IndexBuildTime  time.Duration // building the source's index
	PostingsScanned int64         // posting-list entries inspected while probing
	SkippedByCount  int64         // partners discarded because their shared-token count proved the bound unreachable

	// PairsRetracted counts result pairs withdrawn from a standing
	// incremental result set because one of their trees was removed (see
	// Incremental.Retracted); zero for one-shot joins.
	PairsRetracted int64

	// τ-banded verifier counters, recorded by the default threshold-aware
	// TED verifier (zero when a custom Verifier decided the candidates; see
	// internal/ted and DESIGN.md, "Threshold-aware verification"). Every
	// candidate is counted once: Candidates = DPAvoided + Certified +
	// StrategyLeft + StrategyRight.
	DPAvoided       int64 // candidates rejected with no DP: by the size or label bound or the traversal-string screen
	SeqRejects      int64 // the candidates among DPAvoided that only the traversal-string screen rejected
	Certified       int64 // candidates accepted with no DP: a screen alignment was a tree mapping
	KeyrootsSkipped int64 // keyroot-pair forest DPs pruned by the positional skip
	BandAborts      int64 // forest DPs cut short when a banded row's frontier exceeded τ

	// Decomposition-strategy counters, recorded by the arena verifier: how
	// many candidate pairs ran the DP under each RTED-style per-pair choice
	// (left-path arrays vs. the mirrored right-path arrays). Pairs settled
	// before the DP count under neither.
	StrategyLeft  int64
	StrategyRight int64
}

// Total returns the end-to-end join time.
func (s *Stats) Total() time.Duration {
	return s.CandTime + s.VerifyTime + s.PartitionTime
}

// AddCounters sums every counter and duration of st into total: what folding
// one task of a job into the whole means for the numeric fields. Times
// therefore add up to CPU effort, not wall clock. Trees is a property of the
// whole, not a sum, and Source, Stages and Plan merge by rules their folders
// own.
func AddCounters(total, st *Stats) {
	total.Candidates += st.Candidates
	total.Results += st.Results
	total.CandTime += st.CandTime
	total.VerifyTime += st.VerifyTime
	total.CandWall += st.CandWall
	total.PartitionTime += st.PartitionTime
	total.IndexedSubgraphs += st.IndexedSubgraphs
	total.SubgraphProbes += st.SubgraphProbes
	total.MatchTests += st.MatchTests
	total.MatchHits += st.MatchHits
	total.SmallTreeFallback += st.SmallTreeFallback
	total.IndexBuildTime += st.IndexBuildTime
	total.PostingsScanned += st.PostingsScanned
	total.SkippedByCount += st.SkippedByCount
	total.PairsRetracted += st.PairsRetracted
	total.DPAvoided += st.DPAvoided
	total.SeqRejects += st.SeqRejects
	total.Certified += st.Certified
	total.KeyrootsSkipped += st.KeyrootsSkipped
	total.BandAborts += st.BandAborts
	total.StrategyLeft += st.StrategyLeft
	total.StrategyRight += st.StrategyRight
}

// AddVerifyCounters folds the τ-banded verifier's counters into st: how its
// candidates were settled, for a join run or an incremental stream alike.
func AddVerifyCounters(st *Stats, tc *ted.Counters) {
	st.DPAvoided += tc.DPAvoided.Load()
	st.SeqRejects += tc.SeqRejects.Load()
	st.Certified += tc.Certified.Load()
	st.KeyrootsSkipped += tc.KeyrootsSkipped.Load()
	st.BandAborts += tc.BandAborts.Load()
	st.StrategyLeft += tc.StrategyLeft.Load()
	st.StrategyRight += tc.StrategyRight.Load()
}

// NormalizeWorkers resolves a caller-supplied worker count: values below 1
// ("unset") become runtime.GOMAXPROCS(0) — use every core the runtime will
// schedule on — and explicit counts pass through. Every component that deals
// tasks to a pool (the engine's collection, the incremental stream's
// verification) normalizes through this one function.
func NormalizeWorkers(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Verifier decides whether a candidate pair is a result: it reports the
// distance and whether it is ≤ tau. It is the stateless, pair-at-a-time form
// tests use to inject instrumented verifiers; the joins themselves verify by
// position through a BatchVerifier.
type Verifier func(t1, t2 *tree.Tree, tau int) (int, bool)

// SizeOrder returns tree indices sorted by ascending size, ties by index, as
// required by Algorithm 1 (line 3).
func SizeOrder(ts []*tree.Tree) []int {
	order := make([]int, len(ts))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(ts[a].Size(), ts[b].Size()) })
	return order
}

// Candidate is a pair awaiting verification.
type Candidate struct{ I, J int }

// EmitFunc consumes one verified pair. Returning false asks the producer to
// stop early; producers may still deliver pairs already in flight.
type EmitFunc func(Pair) bool

// verifyBatchChunk is how many candidates a verify worker claims per lock
// acquisition, and decides between context checks. Candidate decisions are
// microseconds, not nanoseconds, so the chunk is about amortising the
// exchange mutex and keeping each worker on one run of the candidate slice
// (the pairs of a run share trees far more often than random pairs do — the
// arena verifier's views and scratch stay hot); it is small enough that
// cancellation aborts within a few TED computations and the tail imbalance
// stays under a chunk's worth of work per worker.
const verifyBatchChunk = 32

// BatchVerifier is a per-worker verification context: it decides candidate
// pairs by collection index and may hold worker-private state — DP scratch, a
// view table — that VerifyPair reuses across the whole batch. Close releases
// that state (returns scratch to its pool); the verifier must not be used
// after Close. A BatchVerifier is confined to one goroutine, so VerifyPair
// needs no locking.
type BatchVerifier interface {
	VerifyPair(i, j, tau int) (dist int, ok bool)
	Close()
}

// BatchVerifierFactory mints one BatchVerifier per verify worker. The factory
// itself may be called from multiple goroutines; the verifiers it returns are
// not shared.
type BatchVerifierFactory func() BatchVerifier

// funcVerifier adapts a stateless pairwise Verifier to the batch interface.
type funcVerifier struct {
	ts []*tree.Tree
	v  Verifier
}

func (f funcVerifier) VerifyPair(i, j, tau int) (int, bool) { return f.v(f.ts[i], f.ts[j], tau) }
func (f funcVerifier) Close()                               {}

// AdaptVerifier lifts a stateless Verifier into a BatchVerifierFactory, so
// custom verifiers (tests) run through the same batched stage as the arena
// verifier.
func AdaptVerifier(ts []*tree.Tree, v Verifier) BatchVerifierFactory {
	return func() BatchVerifier { return funcVerifier{ts: ts, v: v} }
}

// VerifyStreamBatched is the one verify loop over a candidate list — the
// engine's inline flushes and pool-wide pass, Search and Incremental all run
// on it. workers ≤ 1 verifies inline. Each worker mints one BatchVerifier from
// factory, claims candidates in chunks of verifyBatchChunk per lock
// acquisition, decides the chunk without touching shared state, and delivers
// its confirmed pairs, normalised to I < J, to emit under one lock — so the
// per-candidate cost of the stage is the verifier alone. Pairs are emitted
// serially (never concurrently), grouped by chunk; ordering across workers is
// arbitrary. The loop aborts early when ctx is cancelled or emit returns
// false. Every minted verifier is Closed before return, including on early
// abort. The elapsed wall-clock time is added to stats.VerifyTime and
// len(cands) to stats.Candidates.
func VerifyStreamBatched(ctx context.Context, cands []Candidate, tau int, factory BatchVerifierFactory, workers int, stats *Stats, emit EmitFunc) {
	start := time.Now()
	defer func() {
		stats.VerifyTime += time.Since(start)
		stats.Candidates += int64(len(cands))
	}()
	if len(cands) == 0 {
		return
	}
	r := &verifyRun{ctx: ctx, cands: cands, tau: tau, factory: factory, emit: emit}
	workers = min(workers, (len(cands)+verifyBatchChunk-1)/verifyBatchChunk)
	if workers <= 1 {
		r.work()
		return
	}
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.work()
		}()
	}
	wg.Wait()
}

// verifyRun is what the workers of one VerifyStreamBatched call share.
type verifyRun struct {
	ctx     context.Context
	cands   []Candidate
	tau     int
	factory BatchVerifierFactory
	emit    EmitFunc
	mu      sync.Mutex // guards next, stopped and the emit stream
	next    int
	stopped bool
}

// work is one worker: it decides a chunk outside the lock, then emits its
// confirmed pairs and claims the next chunk under one acquisition.
func (r *verifyRun) work() {
	v := r.factory()
	defer v.Close()
	var buf [verifyBatchChunk]Pair
	n := 0
	for {
		lo, hi := r.exchange(buf[:n])
		if lo == hi {
			return
		}
		n = 0
		for _, c := range r.cands[lo:hi] {
			if d, ok := v.VerifyPair(c.I, c.J, r.tau); ok {
				buf[n] = makePair(c, d)
				n++
			}
		}
	}
}

// exchange emits ps, unless the run has stopped, and returns the next chunk
// [lo, hi) to decide, empty once the candidates are claimed, the context is
// cancelled or emit has asked to stop.
func (r *verifyRun) exchange(ps []Pair) (lo, hi int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, p := range ps {
		if r.stopped {
			break
		}
		r.stopped = !r.emit(p)
	}
	if r.ctx.Err() != nil {
		r.stopped = true
	}
	if r.stopped {
		return 0, 0
	}
	lo = r.next
	r.next = min(lo+verifyBatchChunk, len(r.cands))
	return lo, r.next
}

func makePair(c Candidate, d int) Pair {
	if c.I < c.J {
		return Pair{I: c.I, J: c.J, Dist: d}
	}
	return Pair{I: c.J, J: c.I, Dist: d}
}

package treejoin

import (
	"fmt"

	"treejoin/internal/baseline"
	"treejoin/internal/core"
	"treejoin/internal/engine"
)

// Method selects the join algorithm. All methods return identical result
// sets; they differ in filtering strategy and therefore speed. Every method
// is a configuration of the same pipeline engine (a candidate source plus a
// chain of sound lower-bound filters; see DESIGN.md), so all of them support
// self joins, cross joins, parallel execution, and prefilter chaining alike.
type Method int

const (
	// MethodPartSJ is the paper's partition-based join (PRT): the default
	// and fastest method.
	MethodPartSJ Method = iota
	// MethodSTR filters with preorder/postorder traversal-string edit
	// distance lower bounds (Guha et al.).
	MethodSTR
	// MethodSET filters with the binary branch distance (Yang et al.).
	MethodSET
	// MethodBruteForce verifies every pair within the size window. The
	// ground-truth oracle; use only on small collections.
	MethodBruteForce
	// MethodHistogram filters with statistic lower bounds — leaf count,
	// height, label and degree histograms (Kailing et al.).
	MethodHistogram
	// MethodEulerString filters with the Euler-tour string edit distance
	// lower bound, sed(E1,E2) ≤ 2·TED (Akutsu et al.).
	MethodEulerString
	// MethodPQGram filters with the Euler-tour q-gram bag lower bound,
	// |G_q(T1) △ G_q(T2)| ≤ 4q·TED — the pq-gram machinery's exact-join
	// cousin. (The pq-gram distance itself approximates TED without bounding
	// it, so it is no join filter.)
	MethodPQGram
)

// methodNames are the methods' names, by Method; a filter method's is its
// key in baseline.Stages.
var methodNames = [...]string{"PRT", "STR", "SET", "BF", "HIST", "EUL", "PQG"}

func (m Method) String() string {
	if m < 0 || int(m) >= len(methodNames) {
		return fmt.Sprintf("Method(%d)", int(m))
	}
	return methodNames[m]
}

// Prefilter names a cheap pair-level filter stage that can be chained in
// front of any join method with WithPrefilter. Each stage is a sound TED
// lower bound, so chaining never changes the result set — only where the
// pruning work happens (Stats.Stages reports each stage's kill count).
type Prefilter int

const (
	// PrefilterHistogram is the statistics screen (MethodHistogram's
	// filter): the cheapest test per pair, the natural first link.
	PrefilterHistogram Prefilter = iota
	// PrefilterSTR is the traversal-string screen (MethodSTR's filter).
	PrefilterSTR
	// PrefilterSET is the binary branch screen (MethodSET's filter).
	PrefilterSET
	// PrefilterEulerString is the Euler-string screen (MethodEulerString's
	// filter).
	PrefilterEulerString
	// PrefilterPQGram is the Euler-gram bag screen (MethodPQGram's filter).
	PrefilterPQGram
)

// prefilterNames are the prefilters' names, by Prefilter: their keys in
// baseline.Stages.
var prefilterNames = [...]string{"HIST", "STR", "SET", "EUL", "PQG"}

func (p Prefilter) String() string {
	if p < 0 || int(p) >= len(prefilterNames) {
		return fmt.Sprintf("Prefilter(%d)", int(p))
	}
	return prefilterNames[p]
}

type config struct {
	method     Method
	workers    int
	prefilters []Prefilter
	statsDst   *Stats

	// Persistent-store knobs (see Open, WithStoreNoSync, WithSalvage; the
	// memtable budget is set only by the tests' hook): memBudget < 1 keeps
	// the store's default.
	memBudget   int
	storeNoSync bool
	salvage     bool
}

// Option customises a query, or — the store options — an Open.
type Option func(*config)

// WithMethod selects the join algorithm (default MethodPartSJ).
func WithMethod(m Method) Option { return func(c *config) { c.method = m } }

// WithWorkers runs a query on n parallel goroutines: TED verification for
// every method, plus candidate generation wherever the source decomposes —
// the sorted nested loop (MethodBruteForce, and the token index's own
// fallback) deals its probe positions across the pool; PartSJ builds its
// subgraph index and the signature methods their signatures and token index
// on the pool (unless the corpus already holds it for this threshold), and
// both then cut the size order into chunks that probe the one frozen index
// concurrently. Search on a multi-part corpus first deals the n goroutines to
// its parts. Unset (or any n < 1) uses one worker per available core —
// runtime.GOMAXPROCS(0); pass 1 explicitly for a sequential run.
// Stats.CandTime sums the tasks' own clocks (CPU effort); Stats.CandWall
// reports the stage's wall time.
func WithWorkers(n int) Option { return func(c *config) { c.workers = n } }

// WithPrefilter chains the given filter stages, in order, in front of the
// selected method's own filtering. Every stage is a sound lower bound, so
// results are unchanged; per-stage Stats.Stages attribution shows how many
// candidates each stage killed. Chaining a cheap screen before an expensive
// method (e.g. PrefilterHistogram before MethodPartSJ's subgraph matching,
// or before MethodSTR's string joins) trades a linear precomputation for a
// reduction in the expensive per-pair work.
func WithPrefilter(fs ...Prefilter) Option {
	return func(c *config) { c.prefilters = append(c.prefilters, fs...) }
}

// WithStats asks the call to write its execution statistics into dst when it
// finishes. The slice-returning joins return Stats directly; this option
// exists for the streaming variants, whose iter.Seq shape leaves no room for a
// Stats return — dst is filled when the sequence is exhausted or abandoned
// (partial statistics on cancellation or early break) — and for Search and
// KNN, which fill dst with their probe and verification counters, summed over
// the parts and, for KNN, over its thresholds.
func WithStats(dst *Stats) Option { return func(c *config) { c.statsDst = dst } }

func buildConfig(opts []Option) config {
	var c config
	for _, o := range opts {
		o(&c)
	}
	return c
}

// validate reports whether the configured method and prefilter chain name
// real algorithms.
func (c config) validate() error {
	if c.method < 0 || int(c.method) >= len(methodNames) {
		return fmt.Errorf("%w %d", ErrUnknownMethod, int(c.method))
	}
	for _, p := range c.prefilters {
		if p < 0 || int(p) >= len(prefilterNames) {
			return fmt.Errorf("%w %d", ErrUnknownPrefilter, int(p))
		}
	}
	return nil
}

// pipelineChecked assembles the engine pipeline for the configured method:
// its candidate source, the prefilter chain followed by the method's own
// filter, and the execution knobs. This is the single dispatch point behind
// the Corpus joins and Explain; invalid input comes back as an error. An
// index-backed source comes without its index (it offers nothing until a
// join hands it one; see joinQuery.stream). The returned tokenizer is the
// method's token-index tokenizer, nil for the methods that have none (PartSJ,
// brute force).
func (c config) pipelineChecked(tau int) (engine.Job, engine.Tokenizer, error) {
	if tau < 0 {
		return engine.Job{}, nil, fmt.Errorf("%w %d", ErrNegativeThreshold, tau)
	}
	if err := c.validate(); err != nil {
		return engine.Job{}, nil, err
	}
	job := engine.Job{Tau: tau, Workers: c.workers}
	for _, p := range c.prefilters {
		job.Filters = append(job.Filters, baseline.Stages[p.String()].Filter())
	}
	// A signature method runs the token inverted-index source over its
	// stage's token bag. The source offers a subset of the sorted loop's
	// pairs and every offered pair still runs the same filter chain, so
	// results are identical; MethodBruteForce with the method's stage as its
	// last prefilter runs the same chain on the loop. MethodBruteForce itself
	// has the size window only, no lower bound to index on: the nil source is
	// the loop.
	var tz engine.Tokenizer
	if st, ok := baseline.Stages[c.method.String()]; ok {
		job.Filters = append(job.Filters, st.Filter())
		tz = st.Tokenizer()
		job.Source = engine.TokenIndex(tz, nil)
	} else if c.method == MethodPartSJ {
		job.Source = core.NewSource(nil)
	}
	return job, tz, nil
}

// publishStats copies st into the WithStats destination, if one was given.
func (c config) publishStats(st *Stats) {
	if c.statsDst != nil && st != nil {
		*c.statsDst = *st
	}
}

// Incremental is a streaming similarity join: trees are added one at a time,
// in any order, and each Add returns the new tree's partners among all
// previously added trees, with the same PartSJ index built incrementally.
// Corpus.Incremental returns one.
type Incremental = core.Incremental

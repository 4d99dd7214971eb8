package treejoin

import (
	"fmt"
	"strings"

	"treejoin/internal/baseline"
	"treejoin/internal/core"
	"treejoin/internal/engine"
	"treejoin/internal/pqgram"
	"treejoin/internal/sim"
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
	// it, so it is no join filter; PQGramDistance exposes it.)
	MethodPQGram
)

func (m Method) String() string {
	switch m {
	case MethodPartSJ:
		return "PRT"
	case MethodSTR:
		return "STR"
	case MethodSET:
		return "SET"
	case MethodBruteForce:
		return "BF"
	case MethodHistogram:
		return "HIST"
	case MethodEulerString:
		return "EUL"
	case MethodPQGram:
		return "PQG"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
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

func (p Prefilter) String() string {
	switch p {
	case PrefilterHistogram:
		return "HIST"
	case PrefilterSTR:
		return "STR"
	case PrefilterSET:
		return "SET"
	case PrefilterEulerString:
		return "EUL"
	case PrefilterPQGram:
		return "PQG"
	default:
		return fmt.Sprintf("Prefilter(%d)", int(p))
	}
}

func (p Prefilter) stage() engine.PairFilter {
	switch p {
	case PrefilterHistogram:
		return baseline.HISTFilter()
	case PrefilterSTR:
		return baseline.STRFilter()
	case PrefilterSET:
		return baseline.SETFilter()
	case PrefilterEulerString:
		return baseline.EULFilter()
	case PrefilterPQGram:
		return pqgram.Filter(0)
	default:
		panic(fmt.Sprintf("treejoin: unknown prefilter %d", int(p)))
	}
}

type config struct {
	method     Method
	workers    int
	prefilters []Prefilter
	statsDst   *Stats

	// Persistent-store knobs (see Open, WithMemtableBudget, WithStoreNoSync,
	// WithSalvage).
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
// finishes. The slice-returning Corpus calls return Stats directly; this
// option exists for the streaming variants, whose iter.Seq shape leaves no
// room for a Stats return — dst is filled when the sequence is exhausted or
// abandoned (partial statistics on cancellation or early break).
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
	switch c.method {
	case MethodPartSJ, MethodSTR, MethodSET, MethodBruteForce, MethodHistogram, MethodEulerString, MethodPQGram:
	default:
		return fmt.Errorf("%w %d", ErrUnknownMethod, int(c.method))
	}
	for _, p := range c.prefilters {
		switch p {
		case PrefilterHistogram, PrefilterSTR, PrefilterSET, PrefilterEulerString, PrefilterPQGram:
		default:
			return fmt.Errorf("%w %d", ErrUnknownPrefilter, int(p))
		}
	}
	return nil
}

func (c config) coreOptions(tau int) core.Options {
	return core.Options{Tau: tau, Workers: c.workers}
}

// pipelineChecked assembles the engine pipeline for the configured method:
// its candidate source, the prefilter chain followed by the method's own
// filter, and the execution knobs — with the resulting plan record stamped
// into the job. This is the single dispatch point behind the Corpus joins and
// Explain; invalid input comes back as an error. The returned tokenizer is
// the method's token-index tokenizer, nil for the methods that have none
// (PartSJ, brute force).
func (c config) pipelineChecked(tau int) (engine.Job, engine.Tokenizer, error) {
	if tau < 0 {
		return engine.Job{}, nil, fmt.Errorf("%w %d", ErrNegativeThreshold, tau)
	}
	if err := c.validate(); err != nil {
		return engine.Job{}, nil, err
	}
	filters := make([]engine.PairFilter, 0, len(c.prefilters)+1)
	for _, p := range c.prefilters {
		filters = append(filters, p.stage())
	}
	// Signature methods run the token inverted-index source over the token
	// bag their bound (or a sound sibling of it) is stated on: Euler q-grams
	// for the string/gram class, label-histogram entries for the
	// histogram/branch class. The source offers a subset of the sorted loop's
	// pairs and every offered pair still runs the same filter chain, so
	// results are identical; MethodBruteForce with the method's stage as its
	// last prefilter runs the same chain on the loop.
	var tz engine.Tokenizer
	switch c.method {
	case MethodPartSJ:
		return c.coreOptions(tau).Job(filters), nil, nil
	case MethodSTR:
		filters = append(filters, baseline.STRFilter())
		tz = pqgram.Tokenizer(0)
	case MethodSET:
		filters = append(filters, baseline.SETFilter())
		tz = baseline.LabelTokenizer()
	case MethodHistogram:
		filters = append(filters, baseline.HISTFilter())
		tz = baseline.LabelTokenizer()
	case MethodEulerString:
		filters = append(filters, baseline.EULFilter())
		tz = pqgram.Tokenizer(0)
	case MethodPQGram:
		filters = append(filters, pqgram.Filter(0))
		tz = pqgram.Tokenizer(0)
	case MethodBruteForce:
		// Size window only — no lower bound to index on; always the loop.
	}
	var src engine.CandidateSource
	if tz != nil {
		src = engine.TokenIndex(tz, nil)
	}
	job := engine.Job{
		Source:  src,
		Filters: filters,
		Tau:     tau,
		Workers: c.workers,
	}
	job.Plan = planRecord(job)
	return job, tz, nil
}

// Normalized candidate-source names, as Stats.Plan.Source and
// PlanExplanation.Source report them.
const (
	sourceTokenIndex = "token-index"
	sourceSortedLoop = "sorted-loop"
)

// normalizeSource maps a source's name to its normalized form by dropping
// the parenthesised tokenizer: "token-index(labels)" is "token-index".
func normalizeSource(s string) string {
	if i := strings.IndexByte(s, '('); i >= 0 {
		s = s[:i]
	}
	return s
}

// planRecord describes an assembled job's plan for Stats.Plan. It records
// the plan, not the run: a token-index plan whose collection trips the
// index's own fallback still executes the loop, and Stats.Source reports that
// effective source.
func planRecord(job engine.Job) sim.PlanRecord {
	rec := sim.PlanRecord{
		Source: sourceSortedLoop,
		Chain:  make([]string, len(job.Filters)),
	}
	for i, f := range job.Filters {
		rec.Chain[i] = f.Name()
	}
	if job.Source != nil {
		rec.Source = normalizeSource(job.Source.Name())
	}
	return rec
}

// publishStats copies st into the WithStats destination, if one was given.
func (c config) publishStats(st *Stats) {
	if c.statsDst != nil && st != nil {
		*c.statsDst = *st
	}
}

// Incremental is a streaming similarity join: trees are added one at a time,
// in any order, and each Add returns the new tree's partners among all
// previously added trees. This serves the paper's closing motivation —
// "streaming workloads where tree objects are inserted and updated at a high
// rate" — with the same PartSJ index built incrementally. Corpus.Incremental
// returns one.
type Incremental struct {
	inner *core.Incremental
}

// Add inserts t and returns all pairs (existing index, new index) within the
// threshold. The new tree's index is Len()-1 after the call.
func (inc *Incremental) Add(t *Tree) []Pair { return inc.inner.Add(t) }

// Remove deletes the i-th tree from the stream: it no longer appears in the
// results of later Add calls. Positions are stable. Removing an out-of-range
// or already-removed position reports false.
func (inc *Incremental) Remove(i int) bool { return inc.inner.Remove(i) }

// Update replaces the i-th tree with t (Remove followed by Add): it returns
// the replacement's new position and its join partners among the live trees.
func (inc *Incremental) Update(i int, t *Tree) (int, []Pair) { return inc.inner.Update(i, t) }

// Pairs returns the standing result set: every pair some Add reported whose
// trees are both still live, in ascending (I, J) order — the self-join of
// the live trees at the stream's threshold, maintained across arbitrary
// Add/Remove/Update sequences without ever re-joining.
func (inc *Incremental) Pairs() []Pair { return inc.inner.Pairs() }

// Retracted drains the retraction delta: the standing pairs withdrawn by
// Remove (and Update) calls since the previous drain, in ascending (I, J)
// order. Together with Add's returned pairs it forms the full delta stream
// of the standing result — a consumer applying both mirrors Pairs() exactly;
// Stats().PairsRetracted counts the retractions cumulatively.
func (inc *Incremental) Retracted() []Pair { return inc.inner.Retracted() }

// Len returns the number of trees added so far, including removed ones.
func (inc *Incremental) Len() int { return inc.inner.Len() }

// Live returns the number of trees added and not yet removed.
func (inc *Incremental) Live() int { return inc.inner.Live() }

// Tree returns the i-th added tree, or nil if it has been removed.
func (inc *Incremental) Tree(i int) *Tree { return inc.inner.Tree(i) }

// Stats returns a snapshot of the accumulated execution statistics.
func (inc *Incremental) Stats() Stats { return inc.inner.Stats() }

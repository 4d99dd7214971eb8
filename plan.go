package treejoin

import (
	"context"
	"fmt"
	"sort"
	"strings"
)

// PlanSource names a candidate source a fixed plan can pin. The zero value
// keeps the method's default.
type PlanSource int

const (
	// PlanSourceDefault keeps the method's default source (the token
	// inverted index for the signature methods; PartSJ and brute force have
	// no choice).
	PlanSourceDefault PlanSource = iota
	// PlanSourceTokenIndex pins the token inverted-index source. Conflicts
	// with methods that have none (PartSJ, MethodBruteForce).
	PlanSourceTokenIndex
	// PlanSourceSortedLoop pins the O(n²) sorted nested loop.
	PlanSourceSortedLoop
)

func (s PlanSource) String() string {
	switch s {
	case PlanSourceDefault:
		return "default"
	case PlanSourceTokenIndex:
		return sourceTokenIndex
	case PlanSourceSortedLoop:
		return sourceSortedLoop
	default:
		return fmt.Sprintf("PlanSource(%d)", int(s))
	}
}

// PlanSpec pins parts of a query's execution plan for WithFixedPlan. Every
// combination a spec can express is sound — it moves work around without
// changing the result set — so specs are ablation and experimentation
// knobs, not correctness knobs. Zero-valued fields keep the method's
// default plan.
type PlanSpec struct {
	// Source pins the candidate source.
	Source PlanSource
	// Chain, when non-nil, replaces the whole filter chain (the WithPrefilter
	// stages and the method's own filter alike) with exactly these stages in
	// this order. A non-nil empty chain runs no pair filters at all — every
	// offered pair goes straight to verification.
	Chain []Prefilter
	// PrefixC, when positive, sets the token index's prefix-length
	// multiplier: the index stores each tree's first PrefixC·τ+1 tokens
	// instead of the tokenizer's default Slack·τ+1. Values at or below the
	// tokenizer's slack are the default behavior; larger values index a
	// longer (still sound) prefix whose sharper count threshold can skip
	// more screenings at the price of longer posting scans. Requires the
	// token-index source.
	PrefixC int
}

// WithFixedPlan pins parts of a join's execution plan. Every join runs its
// method's one static plan: the WithPrefilter stages and then the method's
// own filter, in that order; the token inverted index as the signature
// methods' candidate source (the index itself falls back to the sorted loop
// on collections under TokenIndexMinTrees, at thresholds reaching the
// largest tree's size, and when even the largest tree's token bag is light);
// and the tokenizer's own prefix multiplier. With no arguments WithFixedPlan
// is that default plan. Specs pin a source, a chain or a prefix multiplier
// individually (later specs override earlier ones field by field). Results
// are identical under every expressible plan; execution statistics
// (Stats.Stages, Stats.Source, Stats.Plan) show the difference. Combinations
// the method cannot execute (pinning the token index on MethodPartSJ or
// MethodBruteForce, a prefix multiplier without the index) return
// ErrOptionConflict.
func WithFixedPlan(specs ...PlanSpec) Option {
	return func(c *config) {
		c.planSpecs = append(c.planSpecs, specs...)
	}
}

// mergedPlanSpec folds the WithFixedPlan specs into one, later specs
// overriding earlier ones field by field.
func (c config) mergedPlanSpec() (PlanSpec, bool) {
	if len(c.planSpecs) == 0 {
		return PlanSpec{}, false
	}
	var out PlanSpec
	for _, s := range c.planSpecs {
		if s.Source != PlanSourceDefault {
			out.Source = s.Source
		}
		if s.Chain != nil {
			out.Chain = s.Chain
		}
		if s.PrefixC > 0 {
			out.PrefixC = s.PrefixC
		}
	}
	return out, true
}

// PlanExplanation is the plan a Corpus join would execute — Corpus.Explain's
// result and the data behind cmd/treejoin's -explain flag.
type PlanExplanation struct {
	// Method and Tau echo the query.
	Method Method
	Tau    int
	// Source is the planned candidate source ("token-index", "sorted-loop",
	// "partsj"). The run's effective source can still differ when the token
	// index's own fallback conditions trip (Stats.Source reports it).
	Source string
	// Chain is the planned filter chain, in execution order.
	Chain []string
	// PrefixC is the token index's prefix-length multiplier (0 when no
	// index).
	PrefixC int
	// WindowPairs is the exact number of tree pairs within the τ size
	// window — the sorted loop's offer count and an upper bound for every
	// source.
	WindowPairs int64

	// index says, under a token-index plan, whether the corpus holds the
	// index for the plan's (tokenizer, τ, C) right now.
	index string
}

// String formats the explanation the way cmd/treejoin -explain prints it.
// Its method and plan lines read exactly as those of a -stats run of the
// same query.
func (ex PlanExplanation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "method:      %v, tau=%d\n", ex.Method, ex.Tau)
	fmt.Fprintf(&b, "plan:        source=%s chain=[%s] C=%d\n", ex.Source, strings.Join(ex.Chain, " "), ex.PrefixC)
	if ex.index != "" {
		fmt.Fprintf(&b, "index:       %s\n", ex.index)
	}
	fmt.Fprintf(&b, "window:      %d pairs within the τ size window", ex.WindowPairs)
	return b.String()
}

// Explain returns the execution plan the corresponding SelfJoin call would
// run, without running the join: the plan it stamps into Stats.Plan, the
// exact number of pairs in the τ size window, and, under a token-index plan,
// whether the corpus already holds that index. It tokenises nothing and
// reads no artifact, so it leaves the corpus cache as it found it.
func (cp *Corpus) Explain(ctx context.Context, tau int, opts ...Option) (PlanExplanation, error) {
	c := buildConfig(opts)
	job, tz, err := c.pipelineChecked(tau)
	if err != nil {
		return PlanExplanation{}, err
	}
	st := cp.state.Load()
	ex := PlanExplanation{
		Method:      c.method,
		Tau:         tau,
		Source:      job.Plan.Source,
		Chain:       job.Plan.Chain,
		PrefixC:     job.Plan.PrefixC,
		WindowPairs: countWindowPairs(st.ts, tau),
	}
	if ex.Source == sourceTokenIndex {
		ex.index = "not cached: the first join at this (tokenizer, τ, C) builds it"
		if st.tokens.Has(tokenIndexKey{tz.Name(), tau, ex.PrefixC}) {
			ex.index = "cached: no build"
		}
	}
	return ex, nil
}

// countWindowPairs returns the exact number of unordered pairs of ts whose
// sizes differ by at most tau, by a two-pointer sweep over the sorted sizes.
func countWindowPairs(ts []*Tree, tau int) int64 {
	sizes := make([]int, len(ts))
	for i, t := range ts {
		sizes[i] = t.Size()
	}
	sort.Ints(sizes)
	var n int64
	lo := 0
	for p, sz := range sizes {
		for sizes[lo] < sz-tau {
			lo++
		}
		n += int64(p - lo)
	}
	return n
}

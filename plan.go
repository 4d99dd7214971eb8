package treejoin

import (
	"context"
	"fmt"
	"sort"
	"strings"
)

// WithFixedPlan changes nothing: every join runs its method's one plan — the
// WithPrefilter stages and then the method's own filter, in that order, over
// the method's candidate source (the PartSJ index; the token inverted index
// for the signature methods, at every corpus size and threshold; the sorted
// loop for MethodBruteForce). A sorted-loop run of a signature method is
// WithMethod(MethodBruteForce) with the method's own stage appended to the
// prefilters. The option is kept so that callers written against earlier
// releases compile; Stats.Plan and Explain describe the plan that runs.
func WithFixedPlan() Option {
	return func(*config) {}
}

// PlanExplanation is the plan a Corpus join would execute — Corpus.Explain's
// result and the data behind cmd/treejoin's -explain flag.
type PlanExplanation struct {
	// Method and Tau echo the query.
	Method Method
	Tau    int
	// Source is the candidate source the join runs ("token-index",
	// "sorted-loop", "partsj"): Stats.Plan.Source, and Stats.Source without
	// its tokenizer suffix.
	Source string
	// Chain is the planned filter chain, in execution order.
	Chain []string
	// WindowPairs is the exact number of tree pairs within the τ size
	// window — the sorted loop's offer count and an upper bound for every
	// source.
	WindowPairs int64

	// index says, under a token-index plan, whether the corpus holds the
	// index for the plan's (tokenizer, τ) right now.
	index string
}

// String formats the explanation the way cmd/treejoin -explain prints it.
// Its method and plan lines read exactly as those of a -stats run of the
// same query.
func (ex PlanExplanation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "method:      %v, tau=%d\n", ex.Method, ex.Tau)
	fmt.Fprintf(&b, "plan:        source=%s chain=[%s]\n", ex.Source, strings.Join(ex.Chain, " "))
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
	st, plan := cp.state.Load(), job.Plan()
	ex := PlanExplanation{
		Method:      c.method,
		Tau:         tau,
		Source:      plan.Source,
		Chain:       plan.Chain,
		WindowPairs: countWindowPairs(st.ts, tau),
	}
	if tz != nil {
		ex.index = "not cached: the first join at this (tokenizer, τ) builds it"
		if st.tokens.Has(tokenIndexKey{tz.Name(), tau}) {
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

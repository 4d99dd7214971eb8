package treejoin

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"treejoin/internal/engine"
	"treejoin/internal/engine/plan"
	"treejoin/internal/sim"
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
		return plan.SourceTokenIndex
	case PlanSourceSortedLoop:
		return plan.SourceSortedLoop
	default:
		return fmt.Sprintf("PlanSource(%d)", int(s))
	}
}

// PlanSpec fixes parts of a query's execution plan for WithFixedPlan. Every
// combination a spec can express is sound — it moves work around without
// changing the result set — so specs are ablation and experimentation
// knobs, not correctness knobs. Zero-valued fields keep the method default.
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

// WithFixedPlan disables adaptive planning for this query. By default a
// Corpus join lets the corpus's learned cost model choose the candidate source
// (token index vs. sorted loop), the prefilter subset and order, and the token
// index's prefix-length multiplier; every plan it can emit is sound, and
// Stats.Plan records what ran and why (origin "observed", "calibrated" or
// "fixed"). With no arguments the method's static default plan runs. With
// specs, the given plan is forced — sources, chains, and prefix multipliers
// that the planner could choose can be pinned individually (later specs
// override earlier ones field by field). Results are identical under every
// expressible plan; execution statistics (Stats.Stages, Stats.Source) show the
// difference. Combinations the method cannot execute (pinning the token index
// on MethodPartSJ or MethodBruteForce, a prefix multiplier without the index)
// return ErrOptionConflict.
func WithFixedPlan(specs ...PlanSpec) Option {
	return func(c *config) {
		c.fixedPlan = true
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

// planJob lets the corpus's cost model revise an assembled job before it
// runs: reorder or thin the filter chain, switch the candidate source, and
// raise the index's prefix budget. The job's cache must already be set (the
// model's calibration probes route through it). Under WithFixedPlan, or on
// a corpus without a model, the job runs as assembled and the decision is
// nil.
func (cp *Corpus) planJob(ctx context.Context, c config, job engine.Job, tz engine.Tokenizer, ts []*Tree, split int, epoch int64) (engine.Job, *plan.Decision) {
	if c.fixedPlan || cp.planner == nil {
		return job, nil
	}
	pin := ""
	switch {
	case c.method == MethodPartSJ:
		pin = "partsj"
		tz = nil
	case tz == nil:
		pin = plan.SourceSortedLoop
		tz = nil
	}
	stages := make([]plan.Stage, len(job.Filters))
	for i, f := range job.Filters {
		stages[i] = plan.Stage{Name: f.Name(), Filter: f}
	}
	dec := cp.planner.Plan(plan.Request{
		Ctx:       ctx,
		Trees:     ts,
		Split:     split,
		Tau:       job.Tau,
		Epoch:     epoch,
		Cache:     job.Cache,
		Stages:    stages,
		Tokenizer: tz,
		PinSource: pin,
		Workers:   c.workers,
	})
	job.Filters = dec.Filters()
	if pin == "" && tz != nil && !dec.UseIndex {
		job.Source = nil
	}
	if dec.PrefixC > job.PrefixC {
		job.PrefixC = dec.PrefixC
	}
	job.Plan = dec.Record
	return job, &dec
}

// observeRun feeds one completed run's statistics back into the corpus's
// cost model. Cancelled runs are not fed (their wall times are truncated);
// neither are PartSJ runs — their stage and verify numbers are conditional
// on the subgraph index's candidate distribution, which the planner never
// reasons about.
func (cp *Corpus) observeRun(st *sim.Stats, ts []*Tree, split, tau int, epoch int64) {
	if cp.planner == nil || st == nil {
		return
	}
	if plan.NormalizeSource(st.Source) == "partsj" {
		return
	}
	cp.planner.Observe(st, ts, split, tau, epoch)
}

// PlanExplanation is the plan a Corpus join would execute, with the cost
// model's estimates — Corpus.Explain's result and the data behind
// cmd/treejoin's -explain flag.
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
	// Origin tells where the plan came from: "fixed" (the static default),
	// "calibrated" (chosen from a sampled probe), or "observed" (backed by
	// completed-run feedback).
	Origin string
	// WindowPairs is the exact number of tree pairs within the τ size
	// window — the sorted loop's offer count and an upper bound for every
	// source.
	WindowPairs int64
	// Survival estimates, per chain stage, the fraction of offered pairs
	// that survive it. Nil when the model has no estimates (fixed plans).
	Survival []float64
	// Candidates estimates how many pairs reach verification; CandTime and
	// VerifyTime estimate the two stages' costs. Zero when the model cannot
	// say.
	Candidates int64
	CandTime   time.Duration
	VerifyTime time.Duration

	// index says, under a token-index plan, whether the corpus holds the
	// index for the plan's (tokenizer, τ, C) right now.
	index string
}

// String formats the explanation the way cmd/treejoin -explain prints it.
func (ex PlanExplanation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan:        method=%v τ=%d source=%s chain=[%s] C=%d origin=%s\n",
		ex.Method, ex.Tau, ex.Source, strings.Join(ex.Chain, " "), ex.PrefixC, ex.Origin)
	if ex.index != "" {
		fmt.Fprintf(&b, "index:       %s\n", ex.index)
	}
	fmt.Fprintf(&b, "window:      %d pairs within the τ size window\n", ex.WindowPairs)
	if ex.Survival != nil {
		parts := make([]string, len(ex.Survival))
		for i, s := range ex.Survival {
			name := "?"
			if i < len(ex.Chain) {
				name = ex.Chain[i]
			}
			parts[i] = fmt.Sprintf("%s %.3f", name, s)
		}
		fmt.Fprintf(&b, "survival:    %s\n", strings.Join(parts, ", "))
		fmt.Fprintf(&b, "estimate:    ~%d candidates, candgen ~%v, verify ~%v",
			ex.Candidates, ex.CandTime.Round(time.Microsecond), ex.VerifyTime.Round(time.Microsecond))
	} else {
		fmt.Fprintf(&b, "estimate:    none (fixed plan; run the join for Stats)")
	}
	return b.String()
}

// Explain returns the execution plan the corresponding SelfJoin call would
// run right now, without running the join. Without WithFixedPlan this
// consults the corpus's cost model — including, on a cold corpus, the
// same sampled calibration probe a real join would trigger (cheap, and its
// artifacts pre-warm the corpus cache) — so the explanation carries the
// model's estimates: expected candidates, per-stage survival, and stage
// costs. Under WithFixedPlan the static plan is described without
// estimates. The plan is advisory: a later join re-plans against the
// model's state at that moment, so its Stats.Plan can differ.
func (cp *Corpus) Explain(ctx context.Context, tau int, opts ...Option) (PlanExplanation, error) {
	c := buildConfig(opts)
	job, tz, err := c.pipelineChecked(tau)
	if err != nil {
		return PlanExplanation{}, err
	}
	st := cp.state.Load()
	job.Cache = cp.runCache()
	job, dec := cp.planJob(ctx, c, job, tz, st.ts, -1, st.epoch)
	ex := PlanExplanation{
		Method:  c.method,
		Tau:     tau,
		Source:  job.Plan.Source,
		Chain:   slices.Clone(job.Plan.Chain),
		PrefixC: job.Plan.PrefixC,
		Origin:  job.Plan.Origin,
	}
	if ex.Source == plan.SourceTokenIndex {
		// The candgen estimate scales the build time past runs reported, and
		// a run that finds the index cached reports none.
		ex.index = "not cached: the first join at this (tokenizer, τ, C) builds it"
		if st.tokens.Has(tokenIndexKey{tz.Name(), tau, ex.PrefixC}) {
			ex.index = "cached: no build"
		}
	}
	if dec != nil {
		ex.WindowPairs = dec.Est.WindowPairs
		ex.Survival = dec.Est.Survival
		ex.Candidates = dec.Est.Candidates
		ex.CandTime = time.Duration(dec.Est.CandNs)
		ex.VerifyTime = time.Duration(dec.Est.VerifyNs)
	} else if cp.planner != nil {
		ex.WindowPairs = cp.planner.WindowPairs(st.ts, -1, tau, st.epoch)
	}
	return ex, nil
}

// Package plan is the engine's adaptive query planner: a per-corpus cost
// model that learns per-stage selectivity and per-pair cost, source costs,
// and posting-scan rates from completed runs — plus a cheap sampled
// calibration probe on cold corpora — and picks, per query, the candidate
// source (token index vs. sorted loop), the prefilter subset and order, and
// the token index's prefix-length multiplier C.
//
// Soundness is unconditional: the planner only permutes, drops, or
// re-parameterises components that are individually sound in any
// configuration. Every filter stage is a sound TED lower bound (any subset
// in any order admits a superset of the default chain's survivors, and the
// verifier decides them exactly); both sources enumerate a superset of the
// result pairs; and any prefix multiplier C' ≥ Slack indexes a superset of
// the proven prefix. So every plan the model can emit yields bit-identical
// results to the fixed default plan — the cost model only decides where the
// work happens, never what the answer is. See DESIGN.md, "Adaptive
// planning".
//
// Decisions are deliberately sticky: switching away from a default needs
// both a decisive relative margin and an absolute predicted saving
// (chainFloorNs, sourceFloor*). On the small collections typical of tests —
// where every plan finishes in microseconds — the model therefore always
// re-emits the fixed default plan, keeping behavior deterministic; the
// floors only clear on workloads where the difference is worth having.
package plan

import (
	"context"
	"math"
	"sort"

	"treejoin/internal/engine"
	"treejoin/internal/sim"
	"treejoin/internal/tree"
)

// Plan origins recorded in sim.PlanRecord.Origin.
const (
	// OriginFixed marks the static default plan (planning skipped, not
	// applicable, or its floors not cleared by the predicted saving).
	OriginFixed = "fixed"
	// OriginCalibrated marks a plan chosen from a sampled calibration probe
	// with no (recent enough) completed-run feedback behind it.
	OriginCalibrated = "calibrated"
	// OriginObserved marks a plan backed by completed-run observations.
	OriginObserved = "observed"
)

// Normalized source names the model keys its cost observations by; see
// NormalizeSource.
const (
	SourceTokenIndex = "token-index"
	SourceSortedLoop = "sorted-loop"
)

// Stage pairs a filter with its stage name for planning.
type Stage struct {
	Name   string
	Filter engine.PairFilter
}

// Request describes one query to plan: the collection (combined A++B for
// cross joins), the threshold, the corpus epoch the membership was read at,
// the artifact cache the run will use, and the method's default pipeline.
type Request struct {
	// Ctx bounds the calibration probe's mini-runs; nil means Background.
	Ctx context.Context
	// Trees is the combined collection; Split is len(A) for cross joins and
	// -1 for self joins (the engine's convention).
	Trees []*tree.Tree
	Split int
	Tau   int
	// Epoch is the corpus mutation epoch of the membership; observations
	// decay as it advances.
	Epoch int64
	// Cache is the run's artifact cache; calibration probes read and warm
	// it, so a probe never recomputes a cached signature.
	Cache *engine.Cache
	// Stages is the default filter chain, in default order.
	Stages []Stage
	// Tokenizer is the token-index source's tokenizer when the method
	// defaults to the index; nil when the index never applies.
	Tokenizer engine.Tokenizer
	// PinSource, when non-empty, pins the candidate source (normalized
	// name: "partsj", "sorted-loop") — the planner then only reorders the
	// chain. Empty with a non-nil Tokenizer means the source is free.
	PinSource string
	// Workers is the job's pool width (cost estimates are wall-clock based,
	// so it only matters for calibration's mini-runs, which run sequential).
	Workers int
}

// Estimates is the cost model's view of a plan, surfaced by -explain.
type Estimates struct {
	// WindowPairs is the exact number of tree pairs inside the τ size
	// window (the loop source's offer count; an upper bound for the index).
	WindowPairs int64
	// Survival holds, per planned stage, the estimated fraction of offered
	// pairs that survive it (unconditional rates; the product is the chain's
	// estimated selectivity). Nil when the model has no stage observations.
	Survival []float64
	// Candidates is the estimated number of pairs reaching verification.
	Candidates int64
	// CandNs and VerifyNs are the estimated candidate-generation and
	// verification costs, in nanoseconds (0 when the model cannot say).
	CandNs   int64
	VerifyNs int64
}

// Decision is one planned execution: the chain in executed order, the source
// choice, the prefix multiplier, the record to stamp into Stats.Plan, and
// the model's estimates.
type Decision struct {
	// Stages is the selected chain in executed order (a permutation of a
	// subset of the request's stages).
	Stages []Stage
	// UseIndex reports whether the token-index source should run; only
	// meaningful when the request's source was free.
	UseIndex bool
	// PrefixC is the prefix multiplier for Job.PrefixC (0 when no index).
	PrefixC int
	// Record is the plan record for Stats.Plan.
	Record sim.PlanRecord
	// Est carries the cost model's estimates for -explain.
	Est Estimates
}

// Filters returns the decision's chain as engine filters, in executed order.
func (d Decision) Filters() []engine.PairFilter {
	fs := make([]engine.PairFilter, len(d.Stages))
	for i, s := range d.Stages {
		fs[i] = s.Filter
	}
	return fs
}

// Planning thresholds. Relative margins guard against estimate noise;
// absolute floors keep the planner from churning plans (and test
// determinism) for savings nobody can measure.
const (
	// dropMargin: a stage is dropped only when its per-pair cost exceeds
	// this multiple of the downstream work it is expected to save. The
	// margin is deliberately wide: once the planner reorders a chain, a
	// late stage's observed kill rate is conditional on the stages now in
	// front of it, so its saving is systematically underestimated — and
	// sampled predicate costs inflate under machine load. Dropping a stage
	// that pays is far more expensive than keeping one that doesn't quite.
	dropMargin = 4.0
	// chainFloorNs: a reordered/reduced chain replaces the default order
	// only when the predicted whole-join saving exceeds this.
	chainFloorNs = 250e3 // 0.25ms
	// Source switching away from the default (index) needs the alternative
	// to be decisively cheaper and the saving to be worth a plan change;
	// observation-backed estimates get a tighter margin than
	// calibration-only ones.
	sourceRatioObserved     = 0.90
	sourceFloorObservedNs   = 500e3 // 0.5ms
	sourceRatioCalibrated   = 0.67
	sourceFloorCalibratedNs = 2e6 // 2ms
	// Prefix tuning: lengthen the indexed prefix (sharpening the count
	// threshold) only when chain screening demonstrably dominates posting
	// scans — screening cost must exceed prefixScanFactor times the scan
	// cost, estimated at postScanNs per posting entry.
	prefixScanFactor = 4.0
	postScanNs       = 20.0
	// killEps floors a kill rate in the cost/kill ordering ratio so a
	// stage that killed nothing sorts last instead of dividing by zero.
	killEps = 1e-4
	// defaultVerifyNs stands in for the per-candidate verification cost
	// until the model has observed one.
	defaultVerifyNs = 2000.0
	// minPlanPairs: below this many window pairs the whole join is so small
	// that wall-clock observations are dominated by scheduler noise (a
	// loaded machine inflates a sub-millisecond run arbitrarily) — every
	// query gets the fixed default plan, no calibration runs, and behavior
	// on small collections stays deterministic.
	minPlanPairs = 4096
)

// Plan emits the execution plan for one query. Collections below the token
// index's own cutoff, pinned single-knob pipelines with nothing to decide,
// and queries the model has no (and can get no) data for all come back as
// the fixed default plan; otherwise the decision is cost-based, falling back
// to calibration on a cold corpus (self joins only — cross joins plan from
// whatever self-join observations exist).
func (m *Model) Plan(req Request) Decision {
	wp := m.WindowPairs(req.Trees, req.Split, req.Tau, req.Epoch)
	dec := fixedDecision(req, wp)
	if len(req.Trees) < engine.TokenIndexMinTrees || wp < minPlanPairs {
		return dec
	}
	free := req.Tokenizer != nil && req.PinSource == ""
	if !free && len(req.Stages) == 0 {
		return dec // nothing to decide
	}
	if !m.covered(req, free) {
		if req.Split >= 0 {
			return dec
		}
		m.calibrate(req)
		if !m.covered(req, free) {
			return dec
		}
	}
	if planned, ok := m.decide(req, free, wp); ok {
		return planned
	}
	return dec
}

// fixedDecision is the static default plan: the method's chain in declared
// order, the method's default source, the tokenizer's own prefix length.
func fixedDecision(req Request, wp int64) Decision {
	dec := Decision{Stages: req.Stages, UseIndex: req.Tokenizer != nil}
	dec.Record = sim.PlanRecord{
		Source: req.PinSource,
		Chain:  stageNames(req.Stages),
		Origin: OriginFixed,
	}
	if dec.Record.Source == "" {
		if req.Tokenizer != nil {
			dec.Record.Source = SourceTokenIndex
		} else {
			dec.Record.Source = SourceSortedLoop
		}
	}
	if req.Tokenizer != nil && req.PinSource == "" {
		dec.Record.PrefixC = req.Tokenizer.Slack()
	}
	dec.Est.WindowPairs = wp
	return dec
}

func stageNames(ss []Stage) []string {
	names := make([]string, len(ss))
	for i, s := range ss {
		names[i] = s.Name
	}
	return names
}

// stageEval is one stage's learned profile during a decision.
type stageEval struct {
	stage Stage
	cost  float64 // sampled predicate ns per pair
	kill  float64 // fraction of offered pairs pruned
	real  bool    // backed by completed-run feedback
}

// covered reports whether the model holds usable observations for every
// input the decision needs: each stage's cost and kill rate, the verify
// cost, and — when the source is free — both sources' run costs. Nearest-τ
// observations within the acceptance gap count.
func (m *Model) covered(req Request, free bool) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, s := range req.Stages {
		if _, ok := m.stageAt(s.Name, req.Tau, req.Epoch); !ok {
			return false
		}
	}
	if len(req.Stages) > 0 {
		m.verify.age(req.Epoch)
		if !usable(&m.verify) {
			return false
		}
	}
	if free {
		for _, src := range []string{SourceSortedLoop, SourceTokenIndex} {
			if _, ok := m.sourceAt(src, req.Tau, req.Epoch); !ok {
				return false
			}
		}
	}
	return true
}

// decide runs the cost model over the request. ok is false when the data
// evaporated between covered and here (decay race) — the caller then emits
// the fixed plan.
func (m *Model) decide(req Request, free bool, wp int64) (Decision, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()

	evs := make([]stageEval, 0, len(req.Stages))
	allReal := true
	for _, s := range req.Stages {
		o, ok := m.stageAt(s.Name, req.Tau, req.Epoch)
		if !ok {
			return Decision{}, false
		}
		ev := stageEval{
			stage: s,
			cost:  o.ns / o.calls,
			kill:  o.pruned / o.in,
			real:  backedByRuns(o),
		}
		evs = append(evs, ev)
		allReal = allReal && ev.real
	}
	verifyNs := defaultVerifyNs
	m.verify.age(req.Epoch)
	if usable(&m.verify) && m.verify.calls > 0 {
		verifyNs = m.verify.ns / m.verify.calls
	}

	// Chain: order by cost per unit kill (cheap, lethal stages first), then
	// drop stages whose cost exceeds dropMargin times the downstream work
	// they save. The planned chain replaces the default order only when the
	// predicted whole-join saving clears chainFloorNs — below that, plan
	// churn buys nothing and costs determinism.
	planned := orderAndDrop(evs, verifyNs)
	gain := (pipeCost(evs, verifyNs) - pipeCost(planned, verifyNs)) * float64(wp)
	if gain < chainFloorNs {
		planned = evs
	}
	chainNs, survAll := chainProfile(planned)

	// Source: the index is the default; switch to the loop only on a
	// decisive, absolutely-worthwhile predicted saving. The loop's cost is
	// estimable even when it never ran — every window pair crosses the
	// planned chain — but an actual loop observation (calibration's mini
	// run, a pinned sorted-loop ablation) is preferred.
	useIndex := req.Tokenizer != nil
	srcName := req.PinSource
	var candEst float64
	offerFrac := 1.0
	if free {
		srcName = SourceTokenIndex
		idxEst, idxReal, idxOK := m.sourceEst(SourceTokenIndex, req, wp)
		loopEst, loopReal, loopOK := m.sourceEst(SourceSortedLoop, req, wp)
		if !loopOK {
			loopEst, loopReal = float64(wp)*chainNs, allReal
			loopOK = chainNs > 0
		}
		if idxOK && loopOK {
			ratio, floor := sourceRatioCalibrated, sourceFloorCalibratedNs
			if idxReal && loopReal {
				ratio, floor = sourceRatioObserved, sourceFloorObservedNs
			}
			if loopEst < ratio*idxEst && idxEst-loopEst > floor {
				useIndex = false
				srcName = SourceSortedLoop
			}
			if useIndex {
				candEst = idxEst
			} else {
				candEst = loopEst
			}
			allReal = allReal && idxReal && loopReal
		} else {
			candEst = loopEst
			allReal = allReal && loopReal
		}
		if useIndex {
			if o, ok := m.sourceAt(SourceTokenIndex, req.Tau, req.Epoch); ok && o.wp >= 1 {
				offerFrac = math.Min(1, o.offers/o.wp)
			}
		}
	} else if srcName == "" {
		srcName = SourceSortedLoop
	}

	// Prefix multiplier: with the index running, lengthen the prefix to
	// 2×Slack when screening work dominates posting scans — the sharper count
	// threshold then converts screenings into skips at a favorable exchange
	// rate.
	prefixC := 0
	if useIndex && req.Tokenizer != nil {
		prefixC = req.Tokenizer.Slack()
		if req.Tau > 0 {
			if o, ok := m.sourceAt(SourceTokenIndex, req.Tau, req.Epoch); ok && o.skipped > 0 {
				screenNs := (o.offers / o.w) * chainNs
				scanNs := (o.scanned / o.w) * postScanNs
				if screenNs > prefixScanFactor*scanNs {
					prefixC = 2 * req.Tokenizer.Slack()
				}
			}
		}
	}

	origin := OriginCalibrated
	if allReal {
		origin = OriginObserved
	}
	dec := Decision{
		Stages:   stagesOf(planned),
		UseIndex: useIndex,
		PrefixC:  prefixC,
		Record: sim.PlanRecord{
			Source:  srcName,
			Chain:   stageNames(stagesOf(planned)),
			PrefixC: prefixC,
			Origin:  origin,
		},
	}
	dec.Est.WindowPairs = wp
	dec.Est.Survival = make([]float64, len(planned))
	for i, ev := range planned {
		dec.Est.Survival[i] = 1 - ev.kill
	}
	dec.Est.Candidates = int64(float64(wp) * offerFrac * survAll)
	dec.Est.CandNs = int64(candEst)
	dec.Est.VerifyNs = int64(float64(dec.Est.Candidates) * verifyNs)
	return dec, true
}

func stagesOf(evs []stageEval) []Stage {
	ss := make([]Stage, len(evs))
	for i, ev := range evs {
		ss[i] = ev.stage
	}
	return ss
}

// orderAndDrop sorts the stages by cost per unit kill (stable, so ties keep
// the default order) and then, scanning the ordered chain back to front,
// drops every stage whose per-pair cost exceeds dropMargin times the
// downstream work its kills would save (downstream = the surviving pair's
// remaining chain plus its verification).
func orderAndDrop(evs []stageEval, verifyNs float64) []stageEval {
	ordered := make([]stageEval, len(evs))
	copy(ordered, evs)
	sort.SliceStable(ordered, func(a, b int) bool {
		ra := ordered[a].cost / math.Max(ordered[a].kill, killEps)
		rb := ordered[b].cost / math.Max(ordered[b].kill, killEps)
		return ra < rb
	})
	kept := make([]stageEval, 0, len(ordered))
	down := verifyNs
	for k := len(ordered) - 1; k >= 0; k-- {
		ev := ordered[k]
		if ev.cost > dropMargin*ev.kill*down {
			continue
		}
		kept = append(kept, ev)
		down = ev.cost + (1-ev.kill)*down
	}
	// kept was built back to front; restore execution order.
	for i, j := 0, len(kept)-1; i < j; i, j = i+1, j-1 {
		kept[i], kept[j] = kept[j], kept[i]
	}
	return kept
}

// pipeCost is the expected per-offered-pair cost of running the chain in the
// given order with verification behind it.
func pipeCost(evs []stageEval, verifyNs float64) float64 {
	cost, surv := chainProfile(evs)
	return cost + surv*verifyNs
}

// chainProfile returns the chain's expected per-pair screening cost and its
// overall survival fraction. Every stage is a lower bound of the same TED,
// so their kills overlap heavily — near-threshold pairs pass all of them,
// far pairs fail most of them. The correlated model (chain survival = the
// minimum stage survival, each stage screening the survivors of the
// sharpest bound so far) tracks measured chains far better than the
// independence product, which multiplies into absurd underestimates.
func chainProfile(evs []stageEval) (chainNs, survival float64) {
	survival = 1.0
	for _, ev := range evs {
		chainNs += survival * ev.cost
		if s := 1 - ev.kill; s < survival {
			survival = s
		}
	}
	return chainNs, survival
}

// sourceEst estimates a source's candidate-stage wall cost for this query by
// scaling its per-run observation: the build part scales with the collection
// size (per-tree prefix construction; observed as zero by the runs that found
// the corpus's index built), the probe part with the window-pair count.
func (m *Model) sourceEst(name string, req Request, wp int64) (ns float64, real, ok bool) {
	o, found := m.sourceAt(name, req.Tau, req.Epoch)
	if !found {
		return 0, false, false
	}
	avgCand := o.candNs / o.w
	avgBuild := o.buildNs / o.w
	probe := avgCand - avgBuild
	if probe < 0 {
		probe = 0
	}
	scaleW, scaleN := 1.0, 1.0
	if avgWp := o.wp / o.w; avgWp >= 1 {
		scaleW = float64(wp) / avgWp
	}
	if avgTrees := o.trees / o.w; avgTrees >= 1 {
		scaleN = float64(len(req.Trees)) / avgTrees
	}
	return probe*scaleW + avgBuild*scaleN, backedByRuns(o), true
}

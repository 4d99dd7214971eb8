package treejoin

import (
	"context"
	"strings"
	"testing"
	"time"

	"treejoin/internal/sim"
	"treejoin/internal/synth"
)

// seedPlanner folds deterministic synthetic observations into cp's cost
// model: a cheap, lethal PQG stage and an expensive, weak HIST stage, an
// affordable token index, and a ruinously slow sorted loop — all observed,
// all at tau. Three folds push every bucket past the trust and
// run-backed thresholds.
func seedPlanner(cp *Corpus, n, tau int) {
	ts := cp.state.Load().ts
	stages := func() []sim.StageStats {
		return []sim.StageStats{
			{Name: "HIST", In: 10000, Pruned: 2000, SampledNs: 320000, Sampled: 160}, // 2000ns/pair, kill 0.2
			{Name: "PQG", In: 8000, Pruned: 7200, SampledNs: 16000, Sampled: 160},    // 100ns/pair, kill 0.9
		}
	}
	for i := 0; i < 3; i++ {
		cp.planner.Observe(&sim.Stats{
			Trees:          n,
			Source:         "token-index(euler-grams/q=3)",
			Candidates:     500,
			CandWall:       5 * time.Millisecond,
			IndexBuildTime: time.Millisecond,
			VerifyTime:     25 * time.Millisecond,
			Stages:         stages(),
		}, ts, -1, tau, 0)
		cp.planner.Observe(&sim.Stats{
			Trees:      n,
			Source:     "sorted-loop",
			Candidates: 500,
			CandWall:   500 * time.Millisecond,
			VerifyTime: 25 * time.Millisecond,
			Stages:     stages(),
		}, ts, -1, tau, 0)
	}
}

// TestPlannedStageOrderAttribution is the executed-order regression test:
// when the planner reorders the filter chain (here HIST→PQG becomes
// PQG→HIST, because the seeded model says PQG is cheap and lethal),
// Stats.Stages must report the stages in the order they actually ran — with
// consistent flow between them — and Stats.Plan must record the same chain.
// Results must match the fixed default plan exactly.
func TestPlannedStageOrderAttribution(t *testing.T) {
	ctx := context.Background()
	const n = 300
	ts := synth.Generate(synth.SyntheticParams(n, 3, 5, 20, 15, 11))
	cp, err := NewCorpus(ts)
	if err != nil {
		t.Fatal(err)
	}
	const tau = 2
	if wp := cp.planner.WindowPairs(ts, -1, tau, 0); wp < minPlanPairsForTest() {
		t.Fatalf("corpus too small to engage the planner: %d window pairs", wp)
	}
	seedPlanner(cp, n, tau)

	var st Stats
	got, _, err := cp.SelfJoin(ctx, tau,
		WithMethod(MethodPQGram), WithPrefilter(PrefilterHistogram), WithStats(&st))
	if err != nil {
		t.Fatal(err)
	}

	if len(st.Stages) != 2 || st.Stages[0].Name != "PQG" || st.Stages[1].Name != "HIST" {
		t.Fatalf("executed stage order not reported: %+v (plan %+v)", st.Stages, st.Plan)
	}
	if st.Stages[1].In != st.Stages[0].Out() {
		t.Fatalf("stage flow broken: PQG out %d, HIST in %d", st.Stages[0].Out(), st.Stages[1].In)
	}
	if len(st.Plan.Chain) != 2 || st.Plan.Chain[0] != "PQG" || st.Plan.Chain[1] != "HIST" {
		t.Fatalf("Stats.Plan.Chain = %v, want [PQG HIST]", st.Plan.Chain)
	}
	if st.Plan.Origin != "observed" {
		t.Fatalf("plan origin = %q, want observed", st.Plan.Origin)
	}
	if st.Plan.Source != "token-index" {
		t.Fatalf("plan source = %q, want token-index", st.Plan.Source)
	}
	if !strings.HasPrefix(st.Source, "token-index(") {
		t.Fatalf("effective source = %q, want token-index(...)", st.Source)
	}

	// The reordered plan must not change a single pair.
	var fixed Stats
	want, _, err := cp.SelfJoin(ctx, tau,
		WithMethod(MethodPQGram), WithPrefilter(PrefilterHistogram),
		WithFixedPlan(), WithStats(&fixed))
	if err != nil {
		t.Fatal(err)
	}
	if fixed.Plan.Origin != "fixed" || len(fixed.Stages) != 2 || fixed.Stages[0].Name != "HIST" {
		t.Fatalf("fixed plan did not run the default chain: %+v (plan %+v)", fixed.Stages, fixed.Plan)
	}
	if len(got) != len(want) {
		t.Fatalf("planned join found %d pairs, fixed plan %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("pair %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

// TestPlanRecordedOnEveryRun asserts satellite invariants of Stats.Plan: a
// fixed record on PartSJ and brute-force runs and under WithFixedPlan,
// carrying the executed chain.
func TestPlanRecordedOnEveryRun(t *testing.T) {
	ctx := context.Background()
	ts := synth.Generate(synth.SyntheticParams(60, 3, 5, 20, 12, 5))
	cp, err := NewCorpus(ts)
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if _, _, err := cp.SelfJoin(ctx, 1, WithPrefilter(PrefilterHistogram), WithStats(&st)); err != nil {
		t.Fatal(err)
	}
	if st.Plan.Source != "partsj" || len(st.Plan.Chain) != 1 || st.Plan.Chain[0] != "HIST" || st.Plan.Origin != "fixed" {
		t.Fatalf("PartSJ plan record = %+v", st.Plan)
	}
	if _, _, err := cp.SelfJoin(ctx, 1, WithMethod(MethodBruteForce), WithStats(&st)); err != nil {
		t.Fatal(err)
	}
	if st.Plan.Source != "sorted-loop" || len(st.Plan.Chain) != 0 || st.Plan.PrefixC != 0 {
		t.Fatalf("brute-force plan record = %+v", st.Plan)
	}
	if _, _, err := cp.SelfJoin(ctx, 1, WithMethod(MethodPQGram), WithFixedPlan(), WithStats(&st)); err != nil {
		t.Fatal(err)
	}
	if st.Plan.Source != "token-index" || st.Plan.Origin != "fixed" || st.Plan.PrefixC != 12 {
		t.Fatalf("fixed plan record = %+v", st.Plan)
	}
}

func minPlanPairsForTest() int64 { return 4096 }

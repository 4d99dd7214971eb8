package treejoin

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"treejoin/internal/engine"
	"treejoin/internal/synth"
)

// TestPlannedStageOrderAttribution is the executed-order regression test: a
// brute-force join whose prefilters run PQG before HIST — the reverse of
// MethodPQGram behind a HIST prefilter — must report the stages in Stats.Stages
// in the order they actually ran, with consistent flow between them, and
// Stats.Plan must record the same chain. Results must match the PQGram
// join's exactly.
func TestPlannedStageOrderAttribution(t *testing.T) {
	ctx := context.Background()
	ts := synth.Generate(synth.SyntheticParams(300, 3, 5, 20, 15, 11))
	cp, err := NewCorpus(ts)
	if err != nil {
		t.Fatal(err)
	}
	const tau = 2

	var st Stats
	got, _, err := cp.SelfJoin(ctx, tau,
		WithMethod(MethodBruteForce), WithPrefilter(PrefilterPQGram, PrefilterHistogram), WithStats(&st))
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
	if st.Plan.Source != "sorted-loop" || st.Source != "sorted-loop" {
		t.Fatalf("plan source %q, effective source %q, want sorted-loop", st.Plan.Source, st.Source)
	}

	// The reordered chain must not change a single pair.
	var declared Stats
	want, _, err := cp.SelfJoin(ctx, tau,
		WithMethod(MethodPQGram), WithPrefilter(PrefilterHistogram), WithStats(&declared))
	if err != nil {
		t.Fatal(err)
	}
	if len(declared.Stages) != 2 || declared.Stages[0].Name != "HIST" || declared.Stages[1].Name != "PQG" {
		t.Fatalf("default plan did not run the declared chain: %+v (plan %+v)", declared.Stages, declared.Plan)
	}
	if !strings.HasPrefix(declared.Source, "token-index(") {
		t.Fatalf("PQGram join's effective source = %q, want token-index(...)", declared.Source)
	}
	if len(got) != len(want) {
		t.Fatalf("reordered join found %d pairs, declared order %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("pair %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

// TestPlanRecordedOnEveryRun asserts invariants of Stats.Plan: a record on
// PartSJ and brute-force runs and under WithFixedPlan, carrying the executed
// chain; and, on a corpus large enough that the index runs, one plan per
// query whatever ran before it — the same record on two fresh corpora, and
// one token index per threshold.
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
	if st.Plan.Source != "partsj" || len(st.Plan.Chain) != 1 || st.Plan.Chain[0] != "HIST" {
		t.Fatalf("PartSJ plan record = %+v", st.Plan)
	}
	if _, _, err := cp.SelfJoin(ctx, 1, WithMethod(MethodBruteForce), WithStats(&st)); err != nil {
		t.Fatal(err)
	}
	if st.Plan.Source != "sorted-loop" || len(st.Plan.Chain) != 0 {
		t.Fatalf("brute-force plan record = %+v", st.Plan)
	}
	if _, _, err := cp.SelfJoin(ctx, 1, WithMethod(MethodPQGram), WithFixedPlan(), WithStats(&st)); err != nil {
		t.Fatal(err)
	}
	if st.Plan.Source != "token-index" || !reflect.DeepEqual(st.Plan.Chain, []string{"PQG"}) {
		t.Fatalf("WithFixedPlan() plan record = %+v", st.Plan)
	}

	// On a corpus of more than 4 096 window pairs, where the index runs, PQG
	// at τ=6 and then τ=8 records the same plan on two fresh corpora, and
	// each corpus holds exactly one token index per threshold.
	big := synth.Generate(synth.SyntheticParams(200, 3, 6, 20, 60, 7))
	if wp := countWindowPairs(big, 6); wp <= 4096 {
		t.Fatalf("corpus too small: %d window pairs at τ=6", wp)
	}
	var plans [2][]Stats
	for c := range plans {
		cp, err := NewCorpus(big)
		if err != nil {
			t.Fatal(err)
		}
		for k, tau := range []int{6, 8} {
			var st Stats
			if _, _, err := cp.SelfJoin(ctx, tau, WithMethod(MethodPQGram), WithStats(&st)); err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(st.Source, "token-index(") || st.Plan.Source != "token-index" ||
				len(st.Plan.Chain) != 1 || st.Plan.Chain[0] != "PQG" {
				t.Fatalf("corpus %d τ=%d: source %q, plan %+v", c, tau, st.Source, st.Plan)
			}
			if n, _, _ := cp.state.Load().tokens.Counts(); n != k+1 {
				t.Fatalf("corpus %d after τ=%d: %d token indexes, want %d", c, tau, n, k+1)
			}
			plans[c] = append(plans[c], st)
		}
	}
	for k := range plans[0] {
		if !reflect.DeepEqual(plans[0][k].Plan, plans[1][k].Plan) {
			t.Fatalf("join %d: plans differ across fresh corpora: %+v vs %+v", k, plans[0][k].Plan, plans[1][k].Plan)
		}
	}
}

// chainOfSize builds a unary chain tree with exactly n nodes.
func chainOfSize(lt *LabelTable, n int) *Tree {
	b := NewBuilder(lt)
	p := b.Root("a")
	for i := 1; i < n; i++ {
		p = b.Child(p, "a")
	}
	return b.MustBuild()
}

func TestCountWindowPairs(t *testing.T) {
	lt := NewLabelTable()
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(40)
		ts := make([]*Tree, n)
		for i := range ts {
			ts[i] = chainOfSize(lt, 1+rng.Intn(12))
		}
		for _, tau := range []int{0, 1, 2, 4, 100} {
			var want int64
			for i := range ts {
				for j := i + 1; j < len(ts); j++ {
					if d := ts[i].Size() - ts[j].Size(); d <= tau && -d <= tau {
						want++
					}
				}
			}
			if got := countWindowPairs(ts, tau); got != want {
				t.Fatalf("trial %d τ=%d: %d pairs, want %d", trial, tau, got, want)
			}
		}
	}
}

// TestNormalizeSource: a plan records its source's name without the
// parenthesised tokenizer, and the nil source as the sorted loop.
func TestNormalizeSource(t *testing.T) {
	cases := map[string]string{
		"token-index(euler-grams/q=3)": "token-index",
		"token-index(labels)":          "token-index",
		"sorted-loop":                  "sorted-loop",
		"partsj":                       "partsj",
		"":                             "",
	}
	for in, want := range cases {
		if got := (engine.Job{Source: namedSource(in)}).Plan().Source; got != want {
			t.Fatalf("the plan of source %q records %q, want %q", in, got, want)
		}
	}
	if got := (engine.Job{}).Plan().Source; got != "sorted-loop" {
		t.Fatalf("the plan of the nil source records %q, want sorted-loop", got)
	}
}

// namedSource is a candidate source that offers nothing under its name.
type namedSource string

func (s namedSource) Name() string                         { return string(s) }
func (namedSource) Tasks(*engine.Collection) []engine.Task { return nil }

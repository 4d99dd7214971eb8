// The plan-equivalence oracle: every plan WithFixedPlan can pin — any
// source, any chain subset/order, any prefix multiplier — must produce
// bit-identical join results to the method's default plan. Plans move work
// around; they never change the answer. This is the soundness harness for
// PlanSpec, run for every method at every threshold, self and cross, before
// and after mutations.
package treejoin_test

import (
	"context"
	"fmt"
	"testing"

	"treejoin"
	"treejoin/internal/synth"
)

type planVariant struct {
	name string
	opts []treejoin.Option
}

// planVariantsFor enumerates the fixed-plan space a method can execute,
// plus the default plan (no options).
func planVariantsFor(m treejoin.Method) []planVariant {
	def := planVariant{"default", nil}
	switch m {
	case treejoin.MethodPartSJ:
		return []planVariant{
			def,
			{"no-filters", []treejoin.Option{treejoin.WithFixedPlan(treejoin.PlanSpec{Chain: []treejoin.Prefilter{}})}},
			{"chain-hist-pqg", []treejoin.Option{treejoin.WithFixedPlan(treejoin.PlanSpec{
				Chain: []treejoin.Prefilter{treejoin.PrefilterHistogram, treejoin.PrefilterPQGram}})}},
		}
	case treejoin.MethodBruteForce:
		return []planVariant{
			def,
			{"chain-hist", []treejoin.Option{treejoin.WithFixedPlan(treejoin.PlanSpec{
				Chain: []treejoin.Prefilter{treejoin.PrefilterHistogram}})}},
		}
	default: // the signature methods: index or loop, free chain, prefix budget
		return []planVariant{
			def,
			{"pin-index", []treejoin.Option{treejoin.WithFixedPlan(treejoin.PlanSpec{Source: treejoin.PlanSourceTokenIndex})}},
			{"pin-loop", []treejoin.Option{treejoin.WithFixedPlan(treejoin.PlanSpec{Source: treejoin.PlanSourceSortedLoop})}},
			{"no-filters", []treejoin.Option{treejoin.WithFixedPlan(treejoin.PlanSpec{Chain: []treejoin.Prefilter{}})}},
			{"chain-rev", []treejoin.Option{treejoin.WithFixedPlan(treejoin.PlanSpec{
				Chain: []treejoin.Prefilter{treejoin.PrefilterPQGram, treejoin.PrefilterSTR, treejoin.PrefilterHistogram}})}},
			{"prefix-c24", []treejoin.Option{treejoin.WithFixedPlan(treejoin.PlanSpec{
				Source: treejoin.PlanSourceTokenIndex, PrefixC: 24})}},
		}
	}
}

// checkPlanEquivalence asserts that on cp every plan variant of every
// method × τ matches that method's fixed default plan, bit for bit.
func checkPlanEquivalence(t *testing.T, step string, cp, other *treejoin.Corpus) {
	t.Helper()
	ctx := context.Background()
	for _, m := range oracleMethods {
		for _, tau := range oracleTaus {
			want, _, err := cp.SelfJoin(ctx, tau, treejoin.WithMethod(m), treejoin.WithFixedPlan())
			if err != nil {
				t.Fatalf("%s: %v τ=%d fixed default: %v", step, m, tau, err)
			}
			wantX, _, err := cp.Join(ctx, other, tau, treejoin.WithMethod(m), treejoin.WithFixedPlan())
			if err != nil {
				t.Fatalf("%s: %v τ=%d fixed default cross: %v", step, m, tau, err)
			}
			for _, v := range planVariantsFor(m) {
				label := fmt.Sprintf("%s: %v τ=%d plan=%s", step, m, tau, v.name)
				opts := append([]treejoin.Option{treejoin.WithMethod(m)}, v.opts...)
				got, _, err := cp.SelfJoin(ctx, tau, opts...)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				samePairs(t, label+" self", got, want)
				gotX, _, err := cp.Join(ctx, other, tau, opts...)
				if err != nil {
					t.Fatalf("%s cross: %v", label, err)
				}
				samePairs(t, label+" cross", gotX, wantX)
			}
		}
	}
}

// TestPlanEquivalenceOracle runs the oracle on a fresh corpus, then mutates
// it (bumping the epoch) and runs it again — the plans on a mutated corpus
// (including the dynamic token snapshot source) must be just as sound.
func TestPlanEquivalenceOracle(t *testing.T) {
	// One generator call: every tree shares a label table. 60 seed the
	// corpus, 12 feed the Add stream, 40 build the cross-join peer.
	pool := synth.Generate(synth.SyntheticParams(112, 3, 5, 20, 60, 3))
	cp := mustCorpus(t, pool[:60])
	other := mustCorpus(t, pool[72:])

	checkPlanEquivalence(t, "fresh", cp, other)

	ids, err := cp.Add(pool[60:72]...)
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	if n := cp.Remove(ids[:6]...); n != 6 {
		t.Fatalf("Remove: removed %d trees, want 6", n)
	}
	if cp.Epoch() == 0 {
		t.Fatal("mutations did not advance the epoch")
	}
	checkPlanEquivalence(t, "mutated", cp, other)
}

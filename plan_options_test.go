// Explain coverage for the plan's public surface: Explain must describe the
// plan a join would run without running it.
package treejoin_test

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"treejoin"
	"treejoin/internal/synth"
)

func TestExplain(t *testing.T) {
	ctx := context.Background()
	cp := mustCorpus(t, synth.Synthetic(60, 4))

	ex, err := cp.Explain(ctx, 2, treejoin.WithMethod(treejoin.MethodPQGram), treejoin.WithFixedPlan())
	if err != nil {
		t.Fatal(err)
	}
	if ex.Source != "token-index" {
		t.Fatalf("fixed explanation = %+v", ex)
	}
	if len(ex.Chain) != 1 || ex.Chain[0] != "PQG" {
		t.Fatalf("fixed chain = %v", ex.Chain)
	}
	if ex.WindowPairs <= 0 {
		t.Fatalf("window pairs = %d, want > 0", ex.WindowPairs)
	}
	if s := ex.String(); !strings.Contains(s, "plan:        source=token-index chain=[PQG]\n") {
		t.Fatalf("String() = %q", s)
	}

	// With no plan option the explanation is the same plan.
	auto, err := cp.Explain(ctx, 2, treejoin.WithMethod(treejoin.MethodPQGram))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(auto, ex) {
		t.Fatalf("default explanation %+v, WithFixedPlan() %+v", auto, ex)
	}

	// Explain is pure on a corpus of more than 4 096 window pairs too: it
	// leaves the cache counters as they were, and names the plan the next
	// join stamps.
	big := mustCorpus(t, synth.Generate(synth.SyntheticParams(200, 3, 6, 20, 60, 7)))
	before := big.CacheStats()
	bex, err := big.Explain(ctx, 6, treejoin.WithMethod(treejoin.MethodPQGram))
	if err != nil {
		t.Fatal(err)
	}
	if bex.WindowPairs <= 4096 {
		t.Fatalf("corpus too small: %d window pairs", bex.WindowPairs)
	}
	if after := big.CacheStats(); after != before {
		t.Fatalf("Explain touched the cache: %+v → %+v", before, after)
	}
	_, bst, err := big.SelfJoin(ctx, 6, treejoin.WithMethod(treejoin.MethodPQGram))
	if err != nil {
		t.Fatal(err)
	}
	if bst.Plan.Source != bex.Source || !slices.Equal(bst.Plan.Chain, bex.Chain) {
		t.Fatalf("join ran %+v, Explain said %+v", bst.Plan, bex)
	}

	// A token-index plan says whether the corpus holds the index it would
	// probe: not before a join at this (tokenizer, τ) built it, cached
	// after — whatever the epoch number — and not again once a mutation has
	// dropped the epoch's indexes.
	indexLine := func(want string) {
		t.Helper()
		ex, err := cp.Explain(ctx, 2, treejoin.WithMethod(treejoin.MethodPQGram), treejoin.WithFixedPlan())
		if err != nil || !strings.Contains(ex.String(), "index:       "+want) {
			t.Fatalf("explanation %q (err %v) does not say the index is %s", ex.String(), err, want)
		}
	}
	indexLine("not cached")
	if _, _, err := cp.SelfJoin(ctx, 2, treejoin.WithMethod(treejoin.MethodPQGram), treejoin.WithFixedPlan()); err != nil {
		t.Fatal(err)
	}
	indexLine("cached")
	if cp.Remove(0) != 1 {
		t.Fatal("Remove")
	}
	indexLine("not cached")

	// Explain refuses invalid options the same way a join would.
	if _, err := cp.Explain(ctx, 1, treejoin.WithPrefilter(treejoin.Prefilter(42))); !errors.Is(err, treejoin.ErrUnknownPrefilter) {
		t.Fatalf("Explain of an unknown prefilter: err = %v, want ErrUnknownPrefilter", err)
	}
}

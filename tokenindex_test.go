package treejoin_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"treejoin"
	"treejoin/internal/synth"
)

var signatureMethods = []treejoin.Method{
	treejoin.MethodSTR, treejoin.MethodSET, treejoin.MethodHistogram,
	treejoin.MethodEulerString, treejoin.MethodPQGram,
}

// TestExplainMatchesRun: the plan Explain reports is the plan a cold join
// runs, for every method, on a corpus of 20 trees and on one of 80 at an
// ordinary threshold, at the largest tree's size and at a threshold whose
// slack swallows every label bag. Explain's source and chain are the run's
// Stats.Plan, Stats.Source names the same source, and a token-index plan's
// cold join builds the index, which the next Explain reports cached. The
// trees are small (16 nodes on average), so that the thresholds that make
// every pair a candidate stay cheap to verify.
func TestExplainMatchesRun(t *testing.T) {
	ctx := context.Background()
	small := synth.Generate(synth.SyntheticParams(20, 3, 5, 20, 16, 9))
	big := synth.Generate(synth.SyntheticParams(80, 3, 5, 20, 16, 9))
	maxSize := 0
	for _, tr := range big {
		maxSize = max(maxSize, tr.Size())
	}
	cases := []struct {
		ts  []*treejoin.Tree
		tau int
	}{{small, 1}, {big, maxSize}, {big, (maxSize + 1) / 2}, {big, 2}}
	for _, m := range histMethods {
		for _, c := range cases {
			label := fmt.Sprintf("%v n=%d τ=%d", m, len(c.ts), c.tau)
			cp := mustCorpus(t, c.ts)
			ex, err := cp.Explain(ctx, c.tau, treejoin.WithMethod(m))
			if err != nil {
				t.Fatal(err)
			}
			_, st, err := cp.SelfJoin(ctx, c.tau, treejoin.WithMethod(m))
			if err != nil {
				t.Fatal(err)
			}
			if ex.Source != st.Plan.Source || !slices.Equal(ex.Chain, st.Plan.Chain) {
				t.Fatalf("%s: Explain plans %s %v, the run recorded %s %v", label, ex.Source, ex.Chain, st.Plan.Source, st.Plan.Chain)
			}
			if source, _, _ := strings.Cut(st.Source, "("); source != ex.Source {
				t.Fatalf("%s: Explain plans %s, the run's source is %s", label, ex.Source, st.Source)
			}
			if ex.Source != "token-index" {
				continue
			}
			if st.IndexBuildTime <= 0 {
				t.Fatalf("%s: the cold join built no index", label)
			}
			if again, err := cp.Explain(ctx, c.tau, treejoin.WithMethod(m)); err != nil || !strings.Contains(again.String(), "cached: no build") {
				t.Fatalf("%s: after the join Explain reports\n%s (err %v)", label, again, err)
			}
		}
	}
}

// TestResolveBuildsNothingWhenIdle: a join builds no index when its context
// is done before it starts, or when either side is empty — for every method,
// on self joins and cross joins. Such joins return no pairs (and ctx's error
// when cancelled); afterwards Explain still finds no token index, and the
// next PartSJ join pays for its build.
func TestResolveBuildsNothingWhenIdle(t *testing.T) {
	ts := synth.Synthetic(60, 5)
	const tau = 2
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	ctx := context.Background()
	for _, m := range histMethods {
		cp, empty := mustCorpus(t, ts), mustCorpus(t, nil)
		with := treejoin.WithMethod(m)
		if pairs, _, err := cp.SelfJoin(cancelled, tau, with); !errors.Is(err, context.Canceled) || len(pairs) > 0 {
			t.Fatalf("%v: cancelled self join: %d pairs, err %v", m, len(pairs), err)
		}
		if pairs, _, err := cp.Join(cancelled, empty, tau, with); !errors.Is(err, context.Canceled) || len(pairs) > 0 {
			t.Fatalf("%v: cancelled cross join: %d pairs, err %v", m, len(pairs), err)
		}
		if pairs, _, err := cp.Join(ctx, empty, tau, with); err != nil || len(pairs) > 0 {
			t.Fatalf("%v: join against an empty partner: %d pairs, err %v", m, len(pairs), err)
		}
		if pairs, _, err := empty.Join(ctx, cp, tau, with); err != nil || len(pairs) > 0 {
			t.Fatalf("%v: join of an empty receiver: %d pairs, err %v", m, len(pairs), err)
		}
		ex, err := cp.Explain(ctx, tau, with)
		if err != nil {
			t.Fatal(err)
		}
		if ex.Source == "token-index" && !strings.Contains(ex.String(), "not cached") {
			t.Fatalf("%v: an idle join built the token index:\n%s", m, ex)
		}
		if _, st, err := cp.SelfJoin(ctx, tau); err != nil || st.IndexBuildTime <= 0 {
			t.Fatalf("%v: the next PartSJ join built in %v (err %v); an idle join built its index", m, st.IndexBuildTime, err)
		}
	}
}

// TestTokenIndexWarmCorpus: a corpus-backed join tokenises each tree exactly
// once — a second join at a different threshold reuses every cached token
// bag (misses frozen, hits growing), the warm-reuse contract the index
// benchmarks rely on.
func TestTokenIndexWarmCorpus(t *testing.T) {
	ctx := context.Background()
	ts := synth.Synthetic(64, 13)
	for _, m := range signatureMethods {
		cp := mustCorpus(t, ts)
		_, st, err := cp.SelfJoin(ctx, 1, treejoin.WithMethod(m))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(st.Source, "token-index(") {
			t.Fatalf("%v: cold join ran %q, not the token index", m, st.Source)
		}
		cold := cp.CacheStats()
		if cold.Misses == 0 {
			t.Fatalf("%v: cold join recorded no cache misses", m)
		}
		if _, _, err := cp.SelfJoin(ctx, 3, treejoin.WithMethod(m)); err != nil {
			t.Fatal(err)
		}
		warm := cp.CacheStats()
		if warm.Misses != cold.Misses {
			t.Errorf("%v: warm join at a new τ recomputed %d artifacts (token bags must be τ-independent)",
				m, warm.Misses-cold.Misses)
		}
		if warm.Hits <= cold.Hits {
			t.Errorf("%v: warm join did not hit the cache (hits %d -> %d)", m, cold.Hits, warm.Hits)
		}
	}
}

// TestCandWall: the candidate stage records a positive wall clock alongside
// the summed task clocks, for both loop and index sources.
func TestCandWall(t *testing.T) {
	ts := synth.Synthetic(64, 21)
	for _, opts := range [][]treejoin.Option{
		{treejoin.WithMethod(treejoin.MethodSTR)},
		{treejoin.WithMethod(treejoin.MethodBruteForce), treejoin.WithPrefilter(treejoin.PrefilterSTR), treejoin.WithWorkers(4)},
	} {
		_, st := selfJoin(t, ts, 2, opts...)
		if st.CandWall <= 0 {
			t.Fatalf("CandWall = %v (stats %+v)", st.CandWall, st)
		}
	}
}

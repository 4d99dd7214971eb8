// The mutation oracle: a dynamic corpus subjected to a random Add/Remove
// sequence must remain observationally identical to a corpus freshly built
// over the surviving trees — bit-identical SelfJoin results (pairs and
// distances) for every method at every threshold, and bit-identical cross
// joins. This is the soundness harness for everything mutation maintains:
// the copy-on-write state and its partition, the parts carried over with
// their indexes and the ones replaced, and the cache evictions. Each history
// draws the part count of its corpora.
package treejoin_test

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"treejoin"
	"treejoin/internal/synth"
)

var oracleMethods = []treejoin.Method{
	treejoin.MethodPartSJ,
	treejoin.MethodSTR,
	treejoin.MethodSET,
	treejoin.MethodHistogram,
	treejoin.MethodEulerString,
	treejoin.MethodPQGram,
	treejoin.MethodBruteForce,
}

var oracleTaus = []int{0, 1, 2, 4}

// drawParts draws a part count for one history's corpus: one or three.
func drawParts(rng *rand.Rand) int { return 1 + 2*rng.Intn(2) }

// checkSelfOracle asserts cp's SelfJoin equals a fresh corpus over the
// survivors, for every method × τ.
func checkSelfOracle(t *testing.T, step string, cp *treejoin.Corpus) {
	t.Helper()
	ctx := context.Background()
	fresh := mustCorpus(t, survivors(cp))
	for _, m := range oracleMethods {
		for _, tau := range oracleTaus {
			got, _, err := cp.SelfJoin(ctx, tau, treejoin.WithMethod(m))
			if err != nil {
				t.Fatalf("%s %v τ=%d: %v", step, m, tau, err)
			}
			want, _, err := fresh.SelfJoin(ctx, tau, treejoin.WithMethod(m))
			if err != nil {
				t.Fatalf("%s %v τ=%d (fresh): %v", step, m, tau, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s %v τ=%d: %d pairs, fresh corpus %d", step, m, tau, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s %v τ=%d pair %d: %+v != %+v", step, m, tau, i, got[i], want[i])
				}
			}
		}
	}
}

// checkCrossOracle asserts cp's cross join against other equals a fresh
// corpus's, for every method × τ.
func checkCrossOracle(t *testing.T, step string, cp, other *treejoin.Corpus) {
	t.Helper()
	ctx := context.Background()
	fresh := mustCorpus(t, survivors(cp))
	for _, m := range oracleMethods {
		for _, tau := range oracleTaus {
			got, _, err := cp.Join(ctx, other, tau, treejoin.WithMethod(m))
			if err != nil {
				t.Fatalf("%s cross %v τ=%d: %v", step, m, tau, err)
			}
			want, _, err := fresh.Join(ctx, other, tau, treejoin.WithMethod(m))
			if err != nil {
				t.Fatalf("%s cross %v τ=%d (fresh): %v", step, m, tau, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s cross %v τ=%d: %d pairs, fresh corpus %d", step, m, tau, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s cross %v τ=%d pair %d: %+v != %+v", step, m, tau, i, got[i], want[i])
				}
			}
		}
	}
}

func TestMutationOracle(t *testing.T) {
	ctx := context.Background()
	// One generator call: every tree shares a label table. The first 60
	// seed the corpus (enough to engage the token-index machinery), the
	// rest feed the Add stream.
	pool := synth.Generate(synth.SyntheticParams(110, 3, 5, 20, 60, 37))
	rng := rand.New(rand.NewSource(41))
	parts := drawParts(rng)
	cp := mustSharded(t, parts, pool[:60])
	other := mustSharded(t, 4-parts, pool[95:])

	liveIDs := make([]int, 60)
	for i := range liveIDs {
		liveIDs[i] = i
	}
	next := 60 // next pool tree to add

	for step := 0; step < 6; step++ {
		if rng.Intn(2) == 0 && next < 95 {
			n := 1 + rng.Intn(3)
			if next+n > 95 {
				n = 95 - next
			}
			ids, err := cp.Add(pool[next : next+n]...)
			if err != nil {
				t.Fatalf("step %d Add: %v", step, err)
			}
			liveIDs = append(liveIDs, ids...)
			next += n
		} else {
			n := 1 + rng.Intn(4)
			for k := 0; k < n && len(liveIDs) > 50; k++ {
				i := rng.Intn(len(liveIDs))
				cp.Remove(liveIDs[i])
				liveIDs = append(liveIDs[:i], liveIDs[i+1:]...)
			}
		}
		checkSelfOracle(t, "step "+string(rune('0'+step)), cp)
	}
	checkCrossOracle(t, "final", cp, other)

	// The sweep must have exercised the token index, not fallen back: the
	// corpus is large enough, so signature joins probe their parts' indexes.
	var st treejoin.Stats
	if _, _, err := cp.SelfJoin(ctx, 2, treejoin.WithMethod(treejoin.MethodPQGram), treejoin.WithStats(&st)); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(st.Source, "token-index(") {
		t.Fatalf("oracle never probed the token index: source = %q", st.Source)
	}
}

// TestMutationOracleChurn removes most of the corpus and re-adds on top of
// it, then re-checks the oracle: an index rebuilt for the new epoch must post
// every live tree (a dropped posting would lose result pairs).
func TestMutationOracleChurn(t *testing.T) {
	pool := synth.Generate(synth.SyntheticParams(140, 3, 5, 20, 50, 53))
	cp := mustSharded(t, 4-drawParts(rand.New(rand.NewSource(41))), pool[:100]) // the count TestMutationOracle did not draw

	// Build the first epoch's indexes, then churn hard.
	cp.Remove(0)
	checkSelfOracle(t, "churn warmup", cp)

	ids := make([]int, 0, 60)
	for id := 1; id <= 60; id++ {
		ids = append(ids, id)
	}
	cp.Remove(ids...) // 61/100 gone
	if _, err := cp.Add(pool[100:]...); err != nil {
		t.Fatal(err)
	}
	checkSelfOracle(t, "churn", cp)
}

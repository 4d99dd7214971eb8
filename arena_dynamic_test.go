// Arena-view maintenance under mutation: the struct-of-arrays verification
// views a corpus caches must stay bit-identical to a fresh flattening of the
// live trees through any Add/Remove sequence — the arena leg of the mutation
// oracle. This file is an internal test (package treejoin) because the
// invariant lives below the public API: it inspects the corpus's artifact
// cache directly.
package treejoin

import (
	"context"
	"slices"
	"testing"

	"treejoin/internal/engine"
	"treejoin/internal/synth"
	"treejoin/internal/ted"
)

// cachedView fetches the arena view the corpus holds for t, if any.
func cachedView(cp *Corpus, t *Tree) (*ted.TreeView, bool) {
	v, ok := cp.cache.Lookup(engine.ArenaKey, t)
	if !ok {
		return nil, false
	}
	return v.(*ted.TreeView), true
}

// requireViewEqual asserts a cached view is field-for-field identical to a
// freshly built one: same arrays and keyroots of both decompositions, same
// sorted labels, same strategy costs.
func requireViewEqual(t *testing.T, step string, got, want *ted.TreeView) {
	t.Helper()
	check := func(name string, g, w []int32) {
		t.Helper()
		if !slices.Equal(g, w) {
			t.Fatalf("%s: cached arena %s = %v, fresh rebuild %v", step, name, g, w)
		}
	}
	check("Labels", got.Labels, want.Labels)
	check("Lml", got.Lml, want.Lml)
	check("RLabels", got.RLabels, want.RLabels)
	check("Rml", got.Rml, want.Rml)
	check("Keyroots", got.Keyroots, want.Keyroots)
	check("RKeyroots", got.RKeyroots, want.RKeyroots)
	check("SortedLabels", got.SortedLabels, want.SortedLabels)
	if got.CostL != want.CostL || got.CostR != want.CostR {
		t.Fatalf("%s: cached costs (%d,%d), fresh rebuild (%d,%d)",
			step, got.CostL, got.CostR, want.CostL, want.CostR)
	}
}

// checkArenaOracle asserts every live tree's cached arena view (when the
// corpus holds one) matches a fresh BuildViews of the live collection, and
// that no removed tree left a view behind.
func checkArenaOracle(t *testing.T, step string, cp *Corpus, removed []*Tree) {
	t.Helper()
	live := cp.Trees()
	fresh := ted.BuildViews(live)
	for i, tr := range live {
		v, ok := cachedView(cp, tr)
		if !ok {
			continue // never flattened: nothing to keep consistent
		}
		requireViewEqual(t, step, v, fresh[i])
	}
	for _, tr := range removed {
		if _, ok := cachedView(cp, tr); ok {
			t.Fatalf("%s: removed tree still has a cached arena view", step)
		}
	}
}

// distinctTrees counts distinct tree pointers: the synthetic cluster
// generator reuses the identical tree object for exact duplicates, and the
// pointer-keyed cache (pointer identity = value identity) stores one view per
// distinct tree, not per position.
func distinctTrees(ts []*Tree) int {
	m := make(map[*Tree]struct{}, len(ts))
	for _, t := range ts {
		m[t] = struct{}{}
	}
	return len(m)
}

// unaliasedPositions returns positions whose tree pointer occurs exactly once
// in the corpus — removal targets whose eviction cannot touch another live
// position's artifacts.
func unaliasedPositions(cp *Corpus) []int {
	live := cp.Trees()
	count := make(map[*Tree]int, len(live))
	for _, t := range live {
		count[t]++
	}
	var out []int
	for i, t := range live {
		if count[t] == 1 {
			out = append(out, i)
		}
	}
	return out
}

// TestArenaMutationOracle drives a corpus through joins and mutations,
// holding the arena invariant at every step: joins populate the views, Add
// pre-warms exactly the new batch, Remove evicts exactly the dead trees, and
// every surviving view equals a fresh rebuild.
func TestArenaMutationOracle(t *testing.T) {
	ctx := context.Background()
	pool := synth.Generate(synth.SyntheticParams(40, 3, 5, 20, 40, 61))
	cp, err := NewCorpus(pool[:24])
	if err != nil {
		t.Fatal(err)
	}

	// Before any join the arena kind is empty, so Add must not speculate.
	if _, err := cp.Add(pool[24]); err != nil {
		t.Fatal(err)
	}
	if got := cp.cache.KindEntries(engine.ArenaKey); got != 0 {
		t.Fatalf("cold corpus pre-warmed %d arena views", got)
	}

	// A join flattens the whole live collection.
	if _, _, err := cp.SelfJoin(ctx, 2); err != nil {
		t.Fatal(err)
	}
	if got, want := cp.cache.KindEntries(engine.ArenaKey), distinctTrees(cp.Trees()); got != want {
		t.Fatalf("after join: %d arena views, %d distinct live trees", got, want)
	}
	checkArenaOracle(t, "after join", cp, nil)

	// Add on a warm corpus pre-warms the batch: the kind tracks membership
	// without another join.
	if _, err := cp.Add(pool[25:30]...); err != nil {
		t.Fatal(err)
	}
	if got, want := cp.cache.KindEntries(engine.ArenaKey), distinctTrees(cp.Trees()); got != want {
		t.Fatalf("after warm Add: %d arena views, %d distinct live trees", got, want)
	}
	checkArenaOracle(t, "after warm Add", cp, nil)

	// Remove evicts the dead trees' views and nothing else. The targets are
	// unaliased positions, so the eviction count is exact.
	solo := unaliasedPositions(cp)
	if len(solo) < 2 {
		t.Fatal("fixture has no unaliased trees to remove")
	}
	p1, p2 := solo[0], solo[1]
	dead := []*Tree{cp.Tree(p1), cp.Tree(p2)}
	if n := cp.Remove(cp.ID(p1), cp.ID(p2)); n != 2 {
		t.Fatalf("Remove removed %d trees, want 2", n)
	}
	if got, want := cp.cache.KindEntries(engine.ArenaKey), distinctTrees(cp.Trees()); got != want {
		t.Fatalf("after Remove: %d arena views, %d distinct live trees", got, want)
	}
	checkArenaOracle(t, "after Remove", cp, dead)

	// Churn: interleaved mutations and a join keep the invariant.
	if _, err := cp.Add(pool[30:34]...); err != nil {
		t.Fatal(err)
	}
	cp.Remove(cp.ID(0), cp.ID(5))
	if _, _, err := cp.SelfJoin(ctx, 1); err != nil {
		t.Fatal(err)
	}
	checkArenaOracle(t, "after churn", cp, nil)

	// The maintained views decide joins identically to a fresh corpus (the
	// result-level half; the field-level half is checkArenaOracle).
	fresh, err := NewCorpus(cp.Trees())
	if err != nil {
		t.Fatal(err)
	}
	for _, tau := range []int{0, 2, 4} {
		got, _, err := cp.SelfJoin(ctx, tau)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := fresh.SelfJoin(ctx, tau)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("τ=%d: mutated corpus join diverged from fresh corpus", tau)
		}
	}
}

// TestOneVerifierArtifact: every verification path of a corpus — joins,
// Search and KNN and an Incremental stream fed corpus
// trees — draws on the one per-tree verifier artifact, the arena view. Once a
// join has built the views, none of the other paths records a single new
// artifact miss or entry, and query trees, however many, are never stored.
func TestOneVerifierArtifact(t *testing.T) {
	ctx := context.Background()
	const tau = 1
	all := synth.Synthetic(2100, 41)
	// Clusters are contiguous: alternate positions so queries have
	// near-duplicates in the corpus and KNN settles at the first threshold.
	var ts, queries []*Tree
	for i, tr := range all {
		if i < 120 && i%2 == 0 {
			ts = append(ts, tr)
		} else {
			queries = append(queries, tr)
		}
	}
	cp, err := NewCorpus(ts)
	if err != nil {
		t.Fatal(err)
	}
	queries = slices.DeleteFunc(queries, cp.isMember)
	if len(queries) < 1000 {
		t.Fatalf("only %d distinct non-member queries", len(queries))
	}
	if _, _, err := cp.SelfJoin(ctx, tau); err != nil {
		t.Fatal(err)
	}
	if got, want := cp.cache.KindEntries(engine.ArenaKey), distinctTrees(ts); got != want {
		t.Fatalf("%d arena views after the joins, want one per distinct tree (%d)", got, want)
	}
	warm := cp.cache.Stats()

	knn := 0
	for _, q := range queries[:1000] {
		hits, err := cp.Search(ctx, q, tau)
		if err != nil {
			t.Fatal(err)
		}
		if len(hits) == 0 {
			continue // KNN would move on to thresholds no join has partitioned for
		}
		knn++
		if ms, err := cp.KNN(ctx, q, 1); err != nil || len(ms) != 1 || ms[0].Dist > tau {
			t.Fatalf("KNN: %v, err %v", ms, err)
		}
	}
	inc, err := cp.Incremental(tau)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range ts {
		inc.Add(tr)
	}
	after := cp.cache.Stats()
	if after.Misses != warm.Misses || after.Entries != warm.Entries {
		t.Fatalf("queries and streams after the joins built artifacts: misses %d → %d, entries %d → %d",
			warm.Misses, after.Misses, warm.Entries, after.Entries)
	}
	if after.Hits == warm.Hits || knn == 0 {
		t.Fatalf("vacuous: cache hits %d → %d, %d KNN queries", warm.Hits, after.Hits, knn)
	}
}

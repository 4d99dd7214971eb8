package treejoin

import (
	"context"
	"path/filepath"
	"slices"
	"testing"

	"treejoin/internal/synth"
)

// TestOpenShardedBuildsNoArtifactOutsideItsShards: a store-backed 4-part
// corpus is the corpus that owns the store — after an Add and a SelfJoin it
// holds exactly the artifacts a NewCorpus over the same trees does, answers as
// it does, serves the store operations, and reopens under another part count
// to the same ids and pairs.
func TestOpenShardedBuildsNoArtifactOutsideItsShards(t *testing.T) {
	ctx := context.Background()
	ts := synth.Synthetic(40, 13)
	saved, err := NewCorpus(ts[:39])
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "store")
	if err := saved.SaveTo(dir); err != nil {
		t.Fatal(err)
	}
	sc, err := OpenSharded(dir, 4, WithStoreNoSync())
	if err != nil {
		t.Fatal(err)
	}
	ids, err := sc.Add(MustParseBracket(FormatBracket(ts[39]), sc.Labels()))
	if err != nil {
		t.Fatal(err)
	}
	sc.Remove(ids[0] - 1)
	got, _, err := sc.SelfJoin(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	single, err := NewCorpus(sc.Trees()) // the store's instances: equal trees share one
	if err != nil || single.Len() != 39 {
		t.Fatal(err)
	}
	want, _, err := single.SelfJoin(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || !slices.Equal(got, want) {
		t.Fatalf("4-part store join: %d pairs, one-part corpus %d", len(got), len(want))
	}
	if a, b := sc.CacheStats().Entries, single.CacheStats().Entries; a != b {
		t.Fatalf("the store-backed corpus holds %d artifacts, NewCorpus over the same trees %d", a, b)
	}
	if rep, err := sc.Scrub(); err != nil || rep.Segments == 0 {
		t.Fatalf("Scrub: %+v, %v", rep, err)
	}
	if err := sc.Compact(); err != nil {
		t.Fatal(err)
	}
	copyDir := filepath.Join(t.TempDir(), "copy")
	if err := sc.SaveTo(copyDir); err != nil {
		t.Fatal(err)
	}
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}
	for n, d := range map[int]string{1: dir, 3: copyDir} {
		re, err := OpenSharded(d, n)
		if err != nil {
			t.Fatal(err)
		}
		again, _, err := re.SelfJoin(ctx, 2)
		if err != nil || !slices.Equal(again, want) || re.NumShards() != n {
			t.Fatalf("reopened on %d parts: %d pairs (want %d), err %v", n, len(again), len(want), err)
		}
		for i := range re.Len() {
			if re.ID(i) != sc.ID(i) {
				t.Fatalf("reopened on %d parts: position %d has id %d, was %d", n, i, re.ID(i), sc.ID(i))
			}
		}
		re.Close()
	}
}

// TestWarmSearchAllocatesNoRunCache: on one part and on four, a warm Search
// allocates what probing its parts' indexes does plus a few words for the
// fan-out and the merge — the run cache an index build reads artifacts
// through is made only when there is an index to build.
func TestWarmSearchAllocatesNoRunCache(t *testing.T) {
	ctx, ts := context.Background(), synth.Synthetic(200, 13)
	// A query near no tree verifies nothing: no pooled scratch, which the race
	// detector drops at random, blurs the count.
	q := MustParseBracket("{q{q}{q}{q}{q}{q}}", ts[0].Labels)
	for _, n := range []int{1, 4} {
		cp, err := NewSharded(n, ts)
		search := func() { _, err = cp.Search(ctx, q, 2, WithWorkers(1)) }
		search() // builds the parts' indexes
		probes := func() {
			for _, p := range cp.state.Load().parts {
				ix, _, _ := p.indexAt(ctx, 2, 1, cp)
				ix.SearchCtx(ctx, q, nil)
			}
		}
		if over := testing.AllocsPerRun(20, search) - testing.AllocsPerRun(20, probes); err != nil || over > 5 {
			t.Fatalf("%d parts: a warm Search allocates %.0f times beyond its probes, want at most 5 (err %v)", n, over, err)
		}
	}
}

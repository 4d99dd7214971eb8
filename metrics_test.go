package treejoin_test

import (
	"testing"

	"treejoin"
	"treejoin/internal/synth"
)

func swissprotSoak() []*treejoin.Tree { return synth.Swissprot(600, 97) }
func treebankSoak() []*treejoin.Tree  { return synth.Treebank(600, 98) }

// TestSoakAllProfiles is a larger end-to-end pass (skipped with -short):
// 600 trees per profile, PartSJ (sequential and parallel) versus the
// brute-force oracle at τ = 2.
func TestSoakAllProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	profiles := map[string][]*treejoin.Tree{
		"swissprot": swissprotSoak(),
		"treebank":  treebankSoak(),
	}
	for name, ts := range profiles {
		want, _ := selfJoin(t, ts, 2, treejoin.WithMethod(treejoin.MethodBruteForce), treejoin.WithWorkers(4))
		for _, opts := range [][]treejoin.Option{
			nil,
			{treejoin.WithWorkers(4)},
		} {
			got, _ := selfJoin(t, ts, 2, opts...)
			if len(got) != len(want) {
				t.Fatalf("%s %v: %d pairs, oracle %d", name, opts, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s %v: pair %d differs", name, opts, i)
				}
			}
		}
	}
}

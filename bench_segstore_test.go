package treejoin_test

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"treejoin"
)

// BenchmarkColdOpen — time to first results on a cold start. Both variants
// start from bytes on disk and end with the same SelfJoin answer over the
// shared 2000-tree bench corpus:
//
//	store:   treejoin.Open on a saved store (segments hold the canonical
//	         trees and their ids, nothing derived), then the join.
//	rebuild: parse the same trees from their serialised text, NewCorpus,
//	         then the join.
//
// Either way the join builds every signature and view from scratch, so the
// two differ only in how the trees come back: a CRC pass and a varint stream
// against a bracket parse. PQG is the counter-workload: the signature-method
// path whose token bags segments once carried must not be slower for having
// lost them. Run at -cpu 1,2.
func BenchmarkColdOpen(b *testing.B) {
	ctx := context.Background()
	ts := engineBenchCorpus()

	// Serialise both starting points once, outside the timer.
	texts := make([]string, len(ts))
	for i, t := range ts {
		texts[i] = treejoin.FormatBracket(t)
	}
	dir := filepath.Join(b.TempDir(), "store")
	if err := mustBenchCorpus(b, ts).SaveTo(dir); err != nil {
		b.Fatal(err)
	}

	// Open alone, for regression tracking: bytes on disk to a corpus ready
	// to query.
	b.Run("Open", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cp, err := treejoin.Open(dir, treejoin.WithStoreNoSync())
			if err != nil {
				b.Fatal(err)
			}
			cp.Close()
		}
	})

	for _, cfg := range []struct {
		name string
		m    treejoin.Method
		tau  int
	}{
		{"PQG/tau=1", treejoin.MethodPQGram, 1},
		{"PRT/tau=2", treejoin.MethodPartSJ, 2},
	} {
		b.Run(fmt.Sprintf("%s/store", cfg.name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cp, err := treejoin.Open(dir, treejoin.WithStoreNoSync())
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := cp.SelfJoin(ctx, cfg.tau, treejoin.WithMethod(cfg.m)); err != nil {
					b.Fatal(err)
				}
				cp.Close()
			}
		})
		b.Run(fmt.Sprintf("%s/rebuild", cfg.name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lt := treejoin.NewLabelTable()
				parsed := make([]*treejoin.Tree, len(texts))
				for j, s := range texts {
					parsed[j] = treejoin.MustParseBracket(s, lt)
				}
				cp := mustBenchCorpus(b, parsed)
				if _, _, err := cp.SelfJoin(ctx, cfg.tau, treejoin.WithMethod(cfg.m)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func mustBenchCorpus(b *testing.B, ts []*treejoin.Tree) *treejoin.Corpus {
	b.Helper()
	cp, err := treejoin.NewCorpus(ts)
	if err != nil {
		b.Fatal(err)
	}
	return cp
}

package engine

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"treejoin/internal/tree"
)

// TestBuildWorkerInvariance: the index built on any number of workers is the
// one-worker build field for field — every posting list, the light trees, the
// prefix lengths and the bags — for both tokenizers, thresholds from exact
// matching through bag-saturating, and a collection smaller than the worker
// count.
func TestBuildWorkerInvariance(t *testing.T) {
	ts := mixedCorpus(60, 11)
	for _, tz := range refTokenizers() {
		for _, tau := range []int{0, 1, 2, 4, 8} {
			for _, col := range [][]*tree.Tree{ts, ts[len(ts)-5:]} {
				want := BuildIndex(tz, col, tau, 1)
				for _, workers := range []int{1, 2, 3, 8} {
					label := fmt.Sprintf("%s τ=%d n=%d workers=%d", tz.Name(), tau, len(col), workers)
					got := BuildIndex(tz, col, tau, workers)
					if !slices.Equal(got.start, want.start) || !slices.Equal(got.post, want.post) || got.light != want.light {
						t.Fatalf("%s: posting lists or light trees differ from the one-worker build", label)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: index differs from the one-worker build", label)
					}
				}
			}
		}
	}
}

// referenceRanking is TokenRanking by its definition: a map numbering of the
// distinct keys of the bags, the keys sorted by (summed frequency, key), a
// token's id its place in that sort (keys by id: that sort), and each bag
// renamed and comparison-sorted by id.
func referenceRanking(tz Tokenizer, ts []*tree.Tree) *TokenRanking {
	rk := &TokenRanking{tz: tz.Name(), slack: tz.Slack(), ts: ts, bags: make([]*tokenBag, len(ts)), off: make([]int, len(ts)+1), ranked: []idCount{}}
	freq := map[uint64]int64{}
	for i, t := range ts {
		rk.bags[i] = buildBag(tz, t)
		rk.off[i+1] = rk.off[i] + len(rk.bags[i].toks)
		for _, tc := range rk.bags[i].toks {
			freq[tc.key] += int64(tc.count)
		}
	}
	keys := slices.Collect(maps.Keys(freq))
	slices.SortFunc(keys, func(a, b uint64) int { return cmp.Or(cmp.Compare(freq[a], freq[b]), cmp.Compare(a, b)) })
	rank := make(map[uint64]int32, len(keys))
	for r, k := range keys {
		rank[k] = int32(r)
	}
	rk.ids, rk.keys = int32(len(keys)), append(make([]uint64, 0, len(keys)), keys...)
	for _, b := range rk.bags {
		bag := make([]idCount, 0, len(b.toks))
		for _, tc := range b.toks {
			bag = append(bag, idCount{id: rank[tc.key], count: tc.count})
		}
		slices.SortFunc(bag, func(a, b idCount) int { return cmp.Compare(a.id, b.id) })
		rk.ranked = append(rk.ranked, bag...)
	}
	return rk
}

// stressCollection returns n one-node trees and a tokenizer that hands tree i
// the tokens of bag(i) — a collection whose keys the test chooses outright.
func stressCollection(n int, bag func(i int) []uint64) (Tokenizer, []*tree.Tree) {
	lt := tree.NewLabelTable()
	ts := make([]*tree.Tree, n)
	toks := make(map[*tree.Tree][]uint64, n)
	for i := range ts {
		ts[i] = tree.MustParseBracket("{a}", lt)
		toks[ts[i]] = bag(i)
	}
	return NewTokenizer("stress", 2, func(dst []uint64, t *tree.Tree) []uint64 { return append(dst, toks[t]...) }), ts
}

// TestTokenRankingReference: NewTokenRanking equals referenceRanking field for
// field on every worker count — the real tokenizers' stand-ins on the mixed
// corpus, an empty collection, trees with empty bags, keys the flat table
// finds hard (0, 2^64−1, keys sharing a home slot, the last slot's home
// wrapping round, enough of them to grow the table), a single token, and id
// counts of one, two and three bytes (the radix's pass counts).
func TestTokenRankingReference(t *testing.T) {
	type input struct {
		name string
		tz   Tokenizer
		ts   []*tree.Tree
	}
	var inputs []input
	for _, tz := range refTokenizers() {
		ts := mixedCorpus(60, 11)
		inputs = append(inputs, input{tz.Name(), tz, ts}, input{tz.Name() + "/empty", tz, nil})
	}
	// Keys sharing the first table's home slots, slot 0's and the last one's
	// among them, beside 0 and 2^64−1; 3 000 more keys grow the table.
	first := newTokenTable()
	var hard []uint64
	homes := map[int]int{}
	for k := uint64(1); len(hard) < 12; k++ {
		if h := first.home(k); (h == 0 || h == 7 || h == len(first.slots)-1) && homes[h] < 4 {
			homes[h]++
			hard = append(hard, k)
		}
	}
	hard = append(hard, 0, math.MaxUint64, math.MaxUint64-1)
	tz, ts := stressCollection(30, func(i int) []uint64 {
		var bag []uint64
		if i%7 == 3 {
			return nil // an empty bag
		}
		for k, key := range hard {
			for range (i + k) % 4 {
				bag = append(bag, key)
			}
		}
		for k := range 100 {
			bag = append(bag, uint64(k*30+i)*0x2545f4914f6cdd1d, uint64(k%(i+1)))
		}
		return bag
	})
	inputs = append(inputs, input{"hard keys", tz, ts})
	tz, ts = stressCollection(4, func(i int) []uint64 { return slices.Repeat([]uint64{42}, i) })
	inputs = append(inputs, input{"one token", tz, ts})
	// 80 000 distinct random keys, each tree holding its own 2 000 of them and
	// a skewed draw from 500 shared ones: ids past 65 536, ties in frequency.
	rng := rand.New(rand.NewSource(5))
	pool := make([]uint64, 80000)
	for k := range pool {
		pool[k] = rng.Uint64()
	}
	tz, ts = stressCollection(40, func(i int) []uint64 {
		bag := slices.Clone(pool[i*2000 : (i+1)*2000])
		for range 600 {
			bag = append(bag, pool[rng.Intn(1+rng.Intn(500))])
		}
		return bag
	})
	inputs = append(inputs, input{"wide", tz, ts})

	// The id counts met: none, one, and those of one, two and three bytes.
	met := map[string]bool{}
	for _, in := range inputs {
		want := referenceRanking(in.tz, in.ts)
		if want.ids <= 1 {
			met[fmt.Sprint(want.ids, " ids")] = true
		} else {
			met[fmt.Sprint((bits.Len32(uint32(want.ids-1))+7)/8, "-byte ids")] = true
		}
		for _, workers := range []int{1, 2, 3, 8} {
			got := NewTokenRanking(in.tz, in.ts, workers, NewCache())
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, %d trees, workers=%d: ranking differs from the reference (%d ids, want %d)", in.name, len(in.ts), workers, got.ids, want.ids)
			}
		}
	}
	for _, m := range []string{"0 ids", "1 ids", "1-byte ids", "2-byte ids", "3-byte ids"} {
		if !met[m] {
			t.Errorf("no input has %s", m)
		}
	}
}

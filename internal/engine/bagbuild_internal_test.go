package engine

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"treejoin/internal/tree"
)

// buildBag is the bag build by its definition: the tokens comparison-sorted,
// then run-length coded into a slice of exactly the distinct count.
func buildBag(tz Tokenizer, t *tree.Tree) *tokenBag {
	raw := tz.AppendTokens(nil, t)
	if len(raw) == 0 {
		return &tokenBag{}
	}
	slices.Sort(raw)
	bag := &tokenBag{total: int32(len(raw))}
	for lo := 0; lo < len(raw); {
		hi := lo + 1
		for hi < len(raw) && raw[hi] == raw[lo] {
			hi++
		}
		bag.toks = append(bag.toks, tokenCount{key: raw[lo], count: int32(hi - lo)})
		lo = hi
	}
	bag.toks = slices.Clip(bag.toks)
	return bag
}

// checkBags builds the bag of every key list with one bagScratch, in order, as
// a build worker does over its run, and compares each with buildBag: keys,
// counts, total, and a toks capacity of exactly the distinct count.
func checkBags(t *testing.T, label string, lists ...[]uint64) {
	t.Helper()
	tz, ts := stressCollection(len(lists), func(i int) []uint64 { return lists[i] })
	var s bagScratch
	for i, tr := range ts {
		var got tokenBag
		s.build(&got, tz, tr)
		want := buildBag(tz, tr)
		if got.total != want.total || !slices.Equal(got.toks, want.toks) || cap(got.toks) != len(want.toks) {
			t.Fatalf("%s, list %d (%d keys): bag has total %d, %d distinct (cap %d), want total %d, %d distinct",
				label, i, len(lists[i]), got.total, len(got.toks), cap(got.toks), want.total, len(want.toks))
		}
	}
}

// TestBagBuildReference: the radix bag build equals the comparison-sorted one
// on lengths around the insertion cutoff and the 64-key boundary and up to
// 4 096, on keys 0 and 2^64−1, on all-equal keys, on keys sharing their top 16
// bits, on small keys with many repeats (label tokens), and with one scratch
// carried from a long list to shorter ones.
func TestBagBuildReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	draw := func(n int, key func() uint64) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = key()
		}
		return out
	}
	lengths := []int{0, 1, 2, 15, 16, 17, 63, 64, 65, 255, 256, 257, 4096}
	shapes := []struct {
		name string
		key  func() uint64
	}{
		{"uniform", rng.Uint64},
		{"extremes", func() uint64 { return []uint64{0, math.MaxUint64}[rng.Intn(2)] }},
		{"all equal", func() uint64 { return 0x5bd1e995 }},
		{"shared top 16 bits", func() uint64 { return 0xabcd<<48 | rng.Uint64()>>16 }},
		{"labels", func() uint64 { return uint64(rng.Intn(40)) }},
		{"skewed", func() uint64 { return []uint64{7, 7, 7, 1 << 40, rng.Uint64()}[rng.Intn(5)] }},
	}
	for _, sh := range shapes {
		var lists [][]uint64
		for _, n := range lengths {
			lists = append(lists, draw(n, sh.key))
		}
		checkBags(t, sh.name, lists...)
		slices.Reverse(lists)
		checkBags(t, sh.name+" longest first", lists...)
	}
	checkBags(t, "hand keys", []uint64{0, math.MaxUint64, 0, 1, math.MaxUint64 - 1, math.MaxUint64, 1 << 63, 1<<63 - 1})
}

// FuzzBagBuild: the radix bag build equals the comparison-sorted one on
// fuzzed keys. Each 8 bytes of data is a key, masked and then or-ed with the
// two fuzzed words, so that the fuzzer reaches repeats and shared high bits
// as easily as spread keys; the keys also go through one scratch twice, as
// one list and as its two halves.
func FuzzBagBuild(f *testing.F) {
	word := func(ks ...uint64) []byte {
		var b []byte
		for _, k := range ks {
			b = binary.LittleEndian.AppendUint64(b, k)
		}
		return b
	}
	f.Add([]byte{}, uint64(math.MaxUint64), uint64(0))
	f.Add(word(0, math.MaxUint64, 0, 1), uint64(math.MaxUint64), uint64(0))
	f.Add(word(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18), uint64(0xff), uint64(0xabcd)<<48)
	f.Add(slices.Repeat([]byte{0x9e, 0x37, 0x79, 0xb9}, 300), uint64(math.MaxUint64), uint64(0))
	f.Add(slices.Repeat([]byte{1}, 8*70), uint64(0), uint64(42))
	f.Fuzz(func(t *testing.T, data []byte, mask, or uint64) {
		keys := make([]uint64, len(data)/8)
		for i := range keys {
			keys[i] = binary.LittleEndian.Uint64(data[8*i:])&mask | or
		}
		half := len(keys) / 2
		checkBags(t, fmt.Sprintf("mask %#x or %#x", mask, or), keys, keys[:half], keys[half:])
	})
}

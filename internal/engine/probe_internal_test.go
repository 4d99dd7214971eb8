package engine

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"treejoin/internal/sim"
	"treejoin/internal/synth"
	"treejoin/internal/tree"
)

// refTokenizers stand in for the two tokenizers the methods wire in, which
// this package cannot import: label tokens with C = 2 (baseline's
// LabelTokenizer) and Euler-tour 3-grams with C = 12 (baseline's
// EulerGramTokenizer; a window packs its three symbols instead of hashing
// them, which changes the keys and not the multiset's shape).
func refTokenizers() []Tokenizer {
	labels := NewTokenizer("labels", 2, func(dst []uint64, t *tree.Tree) []uint64 {
		for i := range t.Nodes {
			dst = append(dst, uint64(uint32(t.Nodes[i].Label)))
		}
		return dst
	})
	const q = 3
	grams := NewTokenizer("euler-grams/q=3", 4*q, func(dst []uint64, t *tree.Tree) []uint64 {
		euler := tree.EulerString(t)
		for w := 0; w+q <= len(euler); w++ {
			var key uint64
			for _, v := range euler[w : w+q] {
				key = key<<21 ^ uint64(uint32(v))
			}
			dst = append(dst, key)
		}
		return dst
	})
	return []Tokenizer{labels, grams}
}

// mixedCorpus is the external tests' corpus of the same name: synthetic trees,
// renamed same-size copies, and a tail of tiny trees for the light path.
func mixedCorpus(n int, seed int64) []*tree.Tree {
	ts := synth.Synthetic(n, seed)
	lt := ts[0].Labels
	for i := 0; i < n; i += 5 {
		ts = append(ts, tree.Rename(ts[i], 0, "renamed"))
	}
	for _, s := range []string{"{a}", "{b}", "{a}", "{a{b}}", "{a{b}{c}}", "{a{c}{b}}", "{x{y{z}}}", "{a{b}{c}}"} {
		ts = append(ts, tree.MustParseBracket(s, lt))
	}
	return ts
}

// probeReference recomputes what the probe must do from the index's bags and
// prefix lengths alone: the global order (ascending bag frequency, ties by
// key), each tree's prefix as the first plen expanded elements of its bag in
// that order, a posting per (prefix token, tree). The probing trees are the
// indexed ones (a self join, split < 0) or ts[split:] by ascending size (a
// cross join over the index of ts[:split]); a self join's probe meets the
// trees of its size window before it in the order, a cross join's every tree
// of the two-sided window. For every probe it returns the offered pairs in
// order, and the postings the probe reads and the partners the count
// threshold drops: a light probe offers its light partners outright and reads
// postings only for the heavy ones.
func probeReference(x *PrefixIndex, tz Tokenizer, ts []*tree.Tree, split int) (offers [][2]int, scanned, skipped int64) {
	freq := map[uint64]int64{}
	for _, b := range x.bags {
		for _, tc := range b.toks {
			freq[tc.key] += int64(tc.count)
		}
	}
	prefix := make([]map[uint64]int32, len(x.bags))
	for ti, b := range x.bags {
		toks := slices.Clone(b.toks)
		slices.SortFunc(toks, func(a, b tokenCount) int {
			if freq[a.key] != freq[b.key] {
				return int(freq[a.key] - freq[b.key])
			}
			if a.key < b.key {
				return -1
			}
			return 1
		})
		prefix[ti] = map[uint64]int32{}
		left := x.plen[ti]
		for _, tc := range toks {
			if left == 0 {
				break
			}
			n := min(tc.count, left)
			prefix[ti][tc.key] = n
			left -= n
		}
	}
	order, probes := sim.SizeOrder(x.ts), sim.SizeOrder(x.ts)
	if split >= 0 {
		probes = sim.SizeOrder(ts[split:])
		for k := range probes {
			probes[k] += split
		}
	}
	for k, ti := range probes {
		bag := buildBag(tz, ts[ti])
		la := bag.total
		for r, tj := range order {
			d := ts[tj].Size() - ts[ti].Size()
			if d < -x.tau || split < 0 && r >= k || split >= 0 && d > x.tau {
				continue
			}
			lb := x.bags[tj].total
			if la <= x.ctau && lb <= x.ctau {
				offers = append(offers, [2]int{ti, tj})
				continue
			}
			var shared int32
			hits := 0
			for _, tc := range bag.toks {
				if n := prefix[tj][tc.key]; n > 0 {
					shared += min(tc.count, n)
					hits++
				}
			}
			scanned += int64(hits)
			need := la - x.ctau // the overlap floor, the bag bound's own for a larger partner
			if lb > la {
				need = (la + lb - x.ctau + 1) / 2
			}
			switch {
			case hits == 0:
			case shared >= max(need-(lb-x.plen[tj]), 1):
				offers = append(offers, [2]int{ti, tj})
			default:
				skipped++
			}
		}
	}
	return offers, scanned, skipped
}

// TestProbeReference pins the probe to its definition: a sequential run
// offers exactly the reference's pairs, in the reference's order, and counts
// exactly its postings and count-skipped partners — both tokenizers,
// thresholds from exact matching through bag-saturating, self joins and cross
// joins (over the index of the first side alone).
func TestProbeReference(t *testing.T) {
	ts := mixedCorpus(60, 11)
	const split = 50
	for _, tz := range refTokenizers() {
		for _, tau := range []int{0, 1, 2, 4, 8} {
			for _, cross := range []bool{false, true} {
				label := fmt.Sprintf("%s τ=%d cross=%v", tz.Name(), tau, cross)
				var got [][2]int
				record := NewFilter("record", func(*Collection) func(i, j int) bool {
					return func(i, j int) bool {
						got = append(got, [2]int{i, j})
						return false
					}
				})
				sp, indexed := -1, ts
				if cross {
					sp, indexed = split, ts[:split]
				}
				x := BuildIndex(tz, indexed, tau, 1)
				job := Job{Tau: tau, Filters: []PairFilter{record}, Source: TokenIndex(tz, x), Workers: 1}
				var st *sim.Stats
				if cross {
					_, st = job.Join(ts[:split], ts[split:])
				} else {
					_, st = job.SelfJoin(ts)
				}
				for ti, b := range x.bags {
					if want := min(int32(tz.Slack()*tau+1), b.total); x.plen[ti] != want {
						t.Fatalf("%s: tree %d prefix length %d, want %d", label, ti, x.plen[ti], want)
					}
				}
				want, scanned, skipped := probeReference(x, tz, ts, sp)
				if !slices.Equal(got, want) {
					t.Fatalf("%s: offered %d pairs, reference %d (or the order differs)", label, len(got), len(want))
				}
				if st.PostingsScanned != scanned || st.SkippedByCount != skipped {
					t.Fatalf("%s: scanned/skipped %d/%d, reference %d/%d", label,
						st.PostingsScanned, st.SkippedByCount, scanned, skipped)
				}
			}
		}
	}
}

// TestProbeAllocs: a probe chunk allocates its scratch once, so a chunk of
// every rank allocates no more often than a chunk of four, and so does a
// cross join's chunk.
func TestProbeAllocs(t *testing.T) {
	ts := mixedCorpus(60, 11)
	for _, tz := range refTokenizers() {
		c := newCollection(context.Background(), ts, -1, 2, 1, nil)
		x := BuildIndex(tz, ts, c.Tau, 1)
		px := &Pipeline{c: c, preds: []func(i, j int) bool{func(i, j int) bool { return false }}, counts: make([]sim.StageStats, 1)}
		n := len(c.Order)
		few := testing.AllocsPerRun(20, func() { x.probe(px, x.TokenRanking, 0, n-4, n) })
		all := testing.AllocsPerRun(20, func() { x.probe(px, x.TokenRanking, 0, 0, n) })
		if px.stats.PostingsScanned == 0 {
			t.Fatalf("%s: the probes read no postings", tz.Name())
		}
		if few > 1 || all > 1 {
			t.Fatalf("%s: %v allocations probing 4 ranks, %v probing %d; want at most 1", tz.Name(), few, all, n)
		}
		const split = 50
		c = newCollection(context.Background(), ts, split, 2, 1, nil)
		x = BuildIndex(tz, ts[:split], c.Tau, 1)
		probes := x.rankForeign(tz, ts[split:], 1, c.Cache())
		px = &Pipeline{c: c, preds: px.preds, counts: make([]sim.StageStats, 1)}
		cross := testing.AllocsPerRun(20, func() { x.probe(px, probes, split, 0, len(c.Probes)) })
		if px.stats.PostingsScanned == 0 || cross > 1 {
			t.Fatalf("%s: %v allocations probing a cross join's %d trees (%d postings read); want at most 1", tz.Name(), cross, len(c.Probes), px.stats.PostingsScanned)
		}
	}
}

// TestProbeAllocsBagStage: with the index tokenizer's bag stage in the chain
// the probe decides it from its mark — the stage's own predicate is never
// called — and the mark comes out of the chunk's one scratch allocation. A
// rejecting stage behind it keeps Emit out of the count.
func TestProbeAllocsBagStage(t *testing.T) {
	ts := mixedCorpus(60, 11)
	for _, tz := range refTokenizers() {
		c := newCollection(context.Background(), ts, -1, 2, 1, nil)
		c.filters = []PairFilter{BagFilter("BAG", tz)}
		x := BuildIndex(tz, ts, c.Tau, 1)
		called := 0
		preds := []func(i, j int) bool{
			func(i, j int) bool { called++; return true },
			func(i, j int) bool { return false },
		}
		px := &Pipeline{c: c, preds: preds, counts: make([]sim.StageStats, 2)}
		n := len(c.Order)
		all := testing.AllocsPerRun(20, func() { x.probe(px, x.TokenRanking, 0, 0, n) })
		if called > 0 || px.counts[0].Pruned == 0 || px.counts[1].In == 0 {
			t.Fatalf("%s: the stage's predicate ran %d times, the mark pruned %d of %d offers", tz.Name(), called, px.counts[0].Pruned, px.counts[0].In)
		}
		if all > 1 {
			t.Fatalf("%s: %v allocations probing %d ranks with the bag stage; want at most 1", tz.Name(), all, n)
		}
	}
}

package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"time"

	"treejoin"
)

// writePairsTSV writes pairs as "i\tj\tdist" lines, the form cmd/treejoin
// prints and the form every digest in this rig is taken over.
func writePairsTSV(w io.Writer, pairs []treejoin.Pair) error {
	bw := bufio.NewWriter(w)
	for _, p := range pairs {
		fmt.Fprintf(bw, "%d\t%d\t%d\n", p.I, p.J, p.Dist)
	}
	return bw.Flush()
}

// pairsDigest is the SHA-256 of the pair list's TSV form. Pairs must be in
// canonical (I, J) order, which every SelfJoin returns.
func pairsDigest(pairs []treejoin.Pair) string {
	h := sha256.New()
	writePairsTSV(h, pairs) // a hash does not fail
	return hex.EncodeToString(h.Sum(nil))
}

func sortPairs(ps []treejoin.Pair) {
	sort.Slice(ps, func(a, b int) bool {
		if ps[a].I != ps[b].I {
			return ps[a].I < ps[b].I
		}
		return ps[a].J < ps[b].J
	})
}

// bruteForce is the oracle: every pair of ts within tau by the unbounded
// Zhang–Shasha distance. Only the size difference, a lower bound that needs
// no argument, spares a pair the full computation. It works row by row (all
// partners j > i of tree i) and stops once budget has passed (never, for a
// budget of 0), dropping the row it was in; rows is how many it completed, so
// the result is exactly the pairs with I < rows. The budget keeps set-up time from
// depending on the shapes of the trees a seed happens to put first: the DP
// over one cluster of 200-node trees costs 3× what it costs over another.
func bruteForce(ts []*treejoin.Tree, tau int, budget time.Duration) (out []treejoin.Pair, rows int) {
	start := time.Now()
	for i := range ts {
		row := len(out)
		for j := i + 1; j < len(ts); j++ {
			if d := ts[i].Size() - ts[j].Size(); d > tau || -d > tau {
				continue
			}
			if budget > 0 && time.Since(start) > budget {
				return out[:row], rows
			}
			if d := treejoin.Distance(ts[i], ts[j]); d <= tau {
				out = append(out, treejoin.Pair{I: i, J: j, Dist: d})
			}
		}
		rows++
	}
	return out, rows
}

// bruteSearch is the search oracle: every tree of ts within tau of q.
func bruteSearch(ts []*treejoin.Tree, q *treejoin.Tree, tau int) []treejoin.Match {
	var out []treejoin.Match
	for i, t := range ts {
		if d := t.Size() - q.Size(); d > tau || -d > tau {
			continue
		}
		if d := treejoin.Distance(t, q); d <= tau {
			out = append(out, treejoin.Match{Pos: i, Dist: d})
		}
	}
	return out
}

// checks counts the operations a run attempted and the ones that failed: a
// non-2xx answer, a transport error, or a wrong result on any correctness
// check. Failures keep their first few messages for the report.
type checks struct {
	Attempted, Failed int
	Msgs              []string
}

func (c *checks) ok(n int) { c.Attempted += n }

func (c *checks) fail(format string, args ...any) {
	c.Attempted++
	c.Failed++
	if len(c.Msgs) < 20 {
		c.Msgs = append(c.Msgs, fmt.Sprintf(format, args...))
	}
}

// expect records one checked operation, failed unless cond holds.
func (c *checks) expect(cond bool, format string, args ...any) {
	if cond {
		c.ok(1)
	} else {
		c.fail(format, args...)
	}
}

func (c *checks) merge(o checks) {
	c.Attempted += o.Attempted
	c.Failed += o.Failed
	c.Msgs = append(c.Msgs, o.Msgs...)
}

// The golden-work test: a fixed set of seeded joins, searches and KNN queries
// whose exact work counters are pinned in testdata/golden_work.txt. The
// oracles compare answers, and a change can keep every answer while doing
// more work for it — a probe window one wider, a count threshold one lower, a
// screen that keeps every pair. Wall clock cannot resolve that on a shared
// host; the counters are exact and deterministic, so the table can. A change
// that moves work on purpose regenerates the table in the same commit
//
//	go test -run TestGoldenWork -update .
//
// and says why each moved row moved.
package treejoin_test

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"treejoin"
	"treejoin/internal/synth"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_work.txt")

const goldenWorkFile = "testdata/golden_work.txt"

// workCase is one pinned query, run on a corpus of its own so that every
// index it probes is built inside the call.
type workCase struct {
	name string
	run  func(ctx context.Context, workers int) (treejoin.Stats, error)
}

func goldenWorkCases() []workCase {
	sw, tb := synth.Swissprot(400, 3), synth.Treebank(300, 3)
	var cases []workCase
	selfJoin := func(name string, ts []*treejoin.Tree, tau int, m treejoin.Method) {
		cases = append(cases, workCase{fmt.Sprintf("%s/%s/tau=%d", m, name, tau), func(ctx context.Context, w int) (treejoin.Stats, error) {
			cp, err := treejoin.NewCorpus(ts)
			if err != nil {
				return treejoin.Stats{}, err
			}
			_, st, err := cp.SelfJoin(ctx, tau, treejoin.WithMethod(m), treejoin.WithWorkers(w))
			return st, err
		}})
	}
	for tau := 1; tau <= 3; tau++ {
		selfJoin("swissprot", sw, tau, treejoin.MethodPartSJ)
		selfJoin("treebank", tb, tau, treejoin.MethodPartSJ)
	}
	var even, odd []*treejoin.Tree // cluster mates fall on both sides
	for i, t := range sw {
		if i%2 == 0 {
			even = append(even, t)
		} else {
			odd = append(odd, t)
		}
	}
	cases = append(cases, workCase{"PRT/swissprot-cross/tau=2", func(ctx context.Context, w int) (treejoin.Stats, error) {
		a, err := treejoin.NewCorpus(even)
		if err != nil {
			return treejoin.Stats{}, err
		}
		b, err := treejoin.NewCorpus(odd)
		if err != nil {
			return treejoin.Stats{}, err
		}
		_, st, err := a.Join(ctx, b, 2, treejoin.WithWorkers(w))
		return st, err
	}})
	selfJoin("treebank", tb, 2, treejoin.MethodSTR)
	selfJoin("swissprot", sw, 2, treejoin.MethodPQGram)
	for _, q := range []int{5, 77, 250} {
		cases = append(cases, workCase{fmt.Sprintf("Search/swissprot/tau=2/q=%d", q), func(ctx context.Context, w int) (st treejoin.Stats, err error) {
			cp, err := treejoin.NewCorpus(sw)
			if err == nil {
				_, err = cp.Search(ctx, sw[q], 2, treejoin.WithWorkers(w), treejoin.WithStats(&st))
			}
			return st, err
		}})
		cases = append(cases, workCase{fmt.Sprintf("KNN/treebank/k=4/q=%d", q), func(ctx context.Context, w int) (st treejoin.Stats, err error) {
			cp, err := treejoin.NewCorpus(tb)
			if err == nil {
				_, err = cp.KNN(ctx, tb[q], 4, treejoin.WithWorkers(w), treejoin.WithStats(&st))
			}
			return st, err
		}})
	}
	return cases
}

// workRow prints a case's pinned counters.
func workRow(name string, st treejoin.Stats) string {
	return fmt.Sprintf("%s indexed=%d probes=%d matchtests=%d matchhits=%d postings=%d skipped=%d candidates=%d dpavoided=%d certified=%d results=%d",
		name, st.IndexedSubgraphs, st.SubgraphProbes, st.MatchTests, st.MatchHits, st.PostingsScanned,
		st.SkippedByCount, st.Candidates, st.DPAvoided, st.Certified, st.Results)
}

// TestGoldenWork runs every case at one worker against the table, then at
// four: every pinned counter is worker-invariant (the PartSJ probe sees what
// the sequential loop saw whatever the chunking, and the token index's
// postings and count skips are per probe tree), so the table must hold there
// too.
func TestGoldenWork(t *testing.T) {
	ctx := context.Background()
	cases := goldenWorkCases()
	table := func(workers int) string {
		var b strings.Builder
		for _, c := range cases {
			st, err := c.run(ctx, workers)
			if err != nil {
				t.Fatalf("%s at %d workers: %v", c.name, workers, err)
			}
			b.WriteString(workRow(c.name, st) + "\n")
		}
		return b.String()
	}
	got := table(1)
	if *updateGolden {
		if err := os.WriteFile(goldenWorkFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenWorkFile)
	if err != nil {
		t.Fatal(err)
	}
	diffWork(t, "1 worker", got, string(want))
	diffWork(t, "4 workers", table(4), string(want))
}

// diffWork reports each row of got that differs from want's.
func diffWork(t *testing.T, what, got, want string) {
	t.Helper()
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	if len(g) != len(w) {
		t.Fatalf("%s: %d rows, the table has %d", what, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Errorf("%s: work moved\n got %s\nwant %s", what, g[i], w[i])
		}
	}
}

// Package bench is the experiment harness that regenerates the paper's
// evaluation (Figures 10–14 and Table 1's parameter grid) and two extensions
// of it, every filtering method side by side and the filter pipelines. Each
// figure function runs the relevant joins through the public Corpus API and
// returns text tables whose rows mirror the series of the corresponding plot;
// cmd/benchfig prints them, and bench_test.go wraps them as testing.B
// benchmarks. (§4.3's balanced-against-random partitioning ablation needs a
// partitioning no Corpus runs; it is BenchmarkAblationPartitioning in
// internal/core.)
//
// The paper's collections (up to 100K trees) are scaled by Config.Scale so
// experiments finish in laptop time; the shape of the comparison — who wins,
// by what factor, how gaps move with τ and cardinality — is the quantity
// being reproduced, not the absolute seconds (DESIGN.md, "Reproduction
// notes").
package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"treejoin"
	"treejoin/internal/synth"
	"treejoin/internal/tree"
)

// Method identifies a join algorithm/configuration under measurement.
type Method string

const (
	STR     Method = "STR"
	SET     Method = "SET"
	PRT     Method = "PRT"
	BF      Method = "BF"       // size filter only (oracle / REL)
	HIST    Method = "HIST"     // Kailing et al. histogram bounds (extension)
	EUL     Method = "EUL"      // Akutsu et al. Euler-string bound (extension)
	PQG     Method = "PQG"      // Euler-gram bag bound (extension)
	PRTHist Method = "HIST→PRT" // HIST prefilter chained before PartSJ
	STRHist Method = "HIST→STR" // HIST prefilter chained before STR
	PQGHist Method = "HIST→PQG" // HIST prefilter chained before PQG
)

// stages are the filter methods' stages, by name.
var stages = map[string]treejoin.Prefilter{
	"HIST": treejoin.PrefilterHistogram,
	"STR":  treejoin.PrefilterSTR,
	"SET":  treejoin.PrefilterSET,
	"EUL":  treejoin.PrefilterEulerString,
	"PQG":  treejoin.PrefilterPQGram,
}

// Result is one join execution's measurements.
type Result struct {
	Method     Method
	Dataset    string
	Tau        int
	Trees      int
	Candidates int64
	Results    int64
	CandGen    time.Duration // candidate generation (+ partitioning for PRT)
	Verify     time.Duration // exact TED computation
	Stages     []treejoin.StageStats
}

// Total is the end-to-end join time.
func (r Result) Total() time.Duration { return r.CandGen + r.Verify }

// Run executes one self join on a corpus of ts and collects its
// measurements. It panics if ts cannot form a corpus (trees of two label
// tables) — the generators' collections always can.
func Run(m Method, dataset string, ts []*tree.Tree, tau, workers int) Result {
	cp, err := treejoin.NewCorpus(ts)
	if err != nil {
		panic("bench: " + err.Error())
	}
	_, st, err := cp.SelfJoin(context.Background(), tau, append(m.options(), treejoin.WithWorkers(workers))...)
	if err != nil {
		panic("bench: " + err.Error())
	}
	return Result{
		Method:     m,
		Dataset:    dataset,
		Tau:        tau,
		Trees:      len(ts),
		Candidates: st.Candidates,
		Results:    st.Results,
		CandGen:    st.CandTime + st.PartitionTime,
		Verify:     st.VerifyTime,
		Stages:     st.Stages,
	}
}

// options are method m's join options. PartSJ probes the subgraph index; the
// other methods run as the paper ran its baselines, the sorted nested loop
// feeding their filter (BF's chain is empty), not the token index; a "HIST→"
// method puts the HIST stage first.
func (m Method) options() []treejoin.Option {
	name, hist := strings.CutPrefix(string(m), "HIST→")
	var fs []treejoin.Prefilter
	if hist {
		fs = append(fs, treejoin.PrefilterHistogram)
	}
	if Method(name) == PRT {
		return []treejoin.Option{treejoin.WithPrefilter(fs...)}
	}
	if st, ok := stages[name]; ok {
		fs = append(fs, st)
	}
	return []treejoin.Option{treejoin.WithMethod(treejoin.MethodBruteForce), treejoin.WithPrefilter(fs...)}
}

// Dataset is a named tree collection.
type Dataset struct {
	Name  string
	Trees []*tree.Tree
}

// Config controls an experiment run.
type Config struct {
	// Scale multiplies the paper's collection cardinalities (100K/50K/10K/
	// 10K). Scale 0.01 gives 1000/500/100/100 trees.
	Scale float64
	// Seed drives the data generators.
	Seed int64
	// Workers parallelises each join, its candidate generation and TED
	// verification: 1 runs sequentially, matching the paper's
	// single-threaded runs, and a value below 1 uses every core.
	Workers int
	// Progress, when non-nil, receives one line per completed join.
	Progress func(string)
}

func (c Config) n(base int) int {
	n := int(float64(base) * c.Scale)
	if n < 20 {
		n = 20
	}
	return n
}

func (c Config) report(format string, args ...any) {
	if c.Progress != nil {
		c.Progress(fmt.Sprintf(format, args...))
	}
}

// Datasets materialises the four collections of §4 at the configured scale.
func Datasets(c Config) []Dataset {
	return []Dataset{
		{"Swissprot", synth.Swissprot(c.n(100000), c.Seed)},
		{"Treebank", synth.Treebank(c.n(50000), c.Seed)},
		{"Sentiment", synth.Sentiment(c.n(10000), c.Seed)},
		{"Synthetic", synth.Synthetic(c.n(10000), c.Seed)},
	}
}

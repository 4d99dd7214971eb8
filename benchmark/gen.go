package main

import (
	"bytes"
	"math/rand"
	"sort"
	"time"

	"treejoin"
	"treejoin/internal/synth"
)

// The four workloads. Names are fixed: later issues cite them.
const (
	joinSparse = "join-sparse"
	joinDense  = "join-dense"
	serveMixed = "serve-mixed"
	storeChurn = "store-churn"
)

var workloadNames = []string{joinSparse, joinDense, serveMixed, storeChurn}

// Sizes are chosen so that one run, set-up included, fits the driver's
// budget of about 35 s on two cores, also while the shared host runs at a
// third of its usual speed; README.md records what each size buys.
const (
	sparseTrees = 12000 // Swissprot profile: large, flat, few results
	denseTrees  = 1440  // near-duplicate clusters: verification dominates
	serveTrees  = 4000  // generated; 3/4 of them boot the server
	storeTrees  = 15000 // Treebank profile, ingested in batches of addBatch as far as the time box allows
	addBatch    = 8
	churnFrom   = 2000 // from this tree on, every Add is followed by a Remove
)

// denseCluster is the cluster size of the join-dense generator: 200-node
// trees in clusters of 36 near-duplicates, so that a τ=8 join sends ~16 k
// candidates into the DP and verification is about 65 % of join_cold_s.
const denseCluster = 36

func denseParams(n int, seed int64) synth.Params {
	p := synth.SyntheticParams(n, 4, 8, 20, 200, seed)
	p.Cluster = denseCluster
	p.Decay = 0.03
	return p
}

// universeSeed seeds the generator of every workload's tree population. The
// population stands in for one of the paper's fixed data sets: it is the same
// in every run, and the run's seed draws the sample the run uses from it
// (which clusters, in which order), the queries, the replay pairs and the
// arrival schedule. Were the generator itself reseeded, each seed would get
// its own label ranking and size mix, and run-to-run spread would measure the
// generator (±25 % on search latency), not the program.
const universeSeed = 2015

// draw returns n trees of universe, taken as whole clusters of the given
// size in an order the seed decides. The universe holds twice what a run
// needs, so two seeds share about half their trees.
func draw(universe []*treejoin.Tree, cluster, n int, seed int64) []*treejoin.Tree {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*treejoin.Tree, 0, n+cluster)
	for _, c := range rng.Perm(len(universe) / cluster) {
		if len(out) >= n {
			break
		}
		out = append(out, universe[c*cluster:(c+1)*cluster]...)
	}
	return out[:n]
}

// holdOut splits ts into the trees a corpus is built from and the trees kept
// back as queries: every every-th tree is held out. The generator emits
// clusters of consecutive near-duplicates, so with every a multiple of the
// cluster size each held-out tree is the cluster mate of corpus members.
func holdOut(ts []*treejoin.Tree, every int) (corpus, held []*treejoin.Tree) {
	for i, t := range ts {
		if i%every == every-1 {
			held = append(held, t)
		} else {
			corpus = append(corpus, t)
		}
	}
	return corpus, held
}

// bracketText renders ts one bracket-notation tree per line: the only form
// in which the program under test ever sees the generated inputs.
func bracketText(ts []*treejoin.Tree) []byte {
	var buf bytes.Buffer
	if err := treejoin.WriteBracketLines(&buf, ts); err != nil {
		panic(err) // a bytes.Buffer does not fail
	}
	return buf.Bytes()
}

// lines splits bracket text back into one string per tree.
func lines(text []byte) []string {
	var out []string
	for _, l := range bytes.Split(text, []byte{'\n'}) {
		if len(l) > 0 {
			out = append(out, string(l))
		}
	}
	return out
}

// parseProbe times ParseBracket over every line of text into a fresh label
// table and returns the cost per node and the number of trees.
func parseProbe(text []byte) (nsPerNode float64, trees int, err error) {
	specs := lines(text)
	lt := treejoin.NewLabelTable()
	nodes := 0
	t0 := time.Now()
	for _, l := range specs {
		t, err := treejoin.ParseBracket(l, lt)
		if err != nil {
			return 0, 0, err
		}
		nodes += t.Size()
	}
	return float64(time.Since(t0)) / float64(nodes), len(specs), nil
}

// opKind is one request type of the serve-mixed traffic mix.
type opKind uint8

const (
	opSearch opKind = iota
	opKNN
	opAdd
	opRemove
	opSelfJoin
)

var opNames = [...]string{"search", "knn", "add", "remove", "selfjoin"}

// The serve-mixed open-loop mix, per second of schedule. A remove targets the
// id an add of this run returned removeLag earlier, so adds equal removes and
// the corpus keeps its size. The mix keeps two cores about 15 % busy at the
// host's usual speed: an open loop does not slow down with the machine, and
// the shared host at times runs four times slower for minutes on end.
const (
	searchRate = 100
	knnRate    = 8
	mutateRate = 5 // adds per second, and removes per second
	removeLag  = 2 * time.Second
	joinEvery  = 2 * time.Second
	serveTau   = 2
	serveK     = 3
)

// request is one scheduled arrival: when it is due (from the start of the
// loop), what it is, and which query or add payload it carries. For a remove,
// arg is the index of the add whose id it removes.
type request struct {
	due time.Duration
	op  opKind
	arg int
}

// schedule precomputes the open-loop arrivals for dur from the seed alone.
// Each class arrives evenly spaced with a seeded phase (even spacing keeps
// the share of point queries that meet a join the same from run to run);
// payloads are drawn at random from nQueries queries; the i-th add carries
// the i-th tree of the add pool.
func schedule(seed int64, dur time.Duration, nQueries int) []request {
	rng := rand.New(rand.NewSource(seed))
	var out []request
	class := func(op opKind, gap time.Duration, arg func(i int) int, from time.Duration) {
		phase := time.Duration(rng.Int63n(int64(gap)))
		for i, due := 0, from+phase; due < dur; i, due = i+1, due+gap {
			out = append(out, request{due: due, op: op, arg: arg(i)})
		}
	}
	query := func(int) int { return rng.Intn(nQueries) }
	nth := func(i int) int { return i }
	class(opSearch, time.Second/searchRate, query, 0)
	class(opKNN, time.Second/knnRate, query, 0)
	adds := len(out)
	class(opAdd, time.Second/mutateRate, nth, 0)
	for _, a := range out[adds:] {
		if due := a.due + removeLag; due < dur {
			out = append(out, request{due: due, op: opRemove, arg: a.arg})
		}
	}
	class(opSelfJoin, joinEvery, nth, 0)
	sort.SliceStable(out, func(i, j int) bool { return out[i].due < out[j].due })
	return out
}

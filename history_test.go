// The history harness: the one differential test of the corpus. A history is
// a seeded random sequence of operations — mutations, store round trips and
// queries — replayed against a real corpus and against a model: the live
// trees (indexes into a fixed pool of trees) and their ids, with every
// distance from ted.ZhangShasha, memoised per tree pair. Every answer must
// equal the model's exactly, in canonical order, and every step must keep the
// invariants check* and statsInvariants assert. A failing history shrinks to
// a minimal one, printed as a Go literal that replayHistory runs again.
//
// The tests at the end of the file are its entry points: each draws a few
// histories from fixed seeds under its own op weights.
package treejoin_test

import (
	"cmp"
	"context"
	"fmt"
	"iter"
	"maps"
	"math"
	"math/rand"
	"os"
	"reflect"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"

	"treejoin"
	"treejoin/internal/synth"
	"treejoin/internal/ted"
)

// opKind is what one step of a history does.
type opKind uint8

const (
	opAdd         opKind = iota // add pool trees Trees as one batch
	opRemove                    // remove a live copy of each pool tree in Picks and one unknown id
	opPin                       // pin a Snapshot: later queries with Pinned set run on it
	opReopen                    // Close the store, then OpenSharded it on Parts parts
	opCompact                   // Compact the store
	opSave                      // SaveTo a new directory, Close, and OpenSharded the copy on Parts parts
	opSelfJoin                  // SelfJoin, or SelfJoinSeq with Seq
	opJoin                      // Join (JoinSeq with Seq) against a corpus over pool[Lo:Lo+N] on Parts parts
	opSearch                    // Search for pool tree Query
	opTopK                      // TopK
	opKNN                       // KNN of pool tree Query
	opIncremental               // check the Incremental stream that mirrors every mutation
	numKinds
)

var kindNames = [numKinds]string{"opAdd", "opRemove", "opPin", "opReopen", "opCompact", "opSave",
	"opSelfJoin", "opJoin", "opSearch", "opTopK", "opKNN", "opIncremental"}

// histOp is one step. Each carries every draw it needs, so dropping steps
// (shrinking) leaves the others' meaning alone.
type histOp struct {
	Kind    opKind
	Trees   []int // opAdd
	Picks   []int // opRemove: pool indexes
	Parts   int   // opReopen, opSave, opJoin
	Method  treejoin.Method
	Tau, K  int
	Workers int
	Plan    int // index into planVariants, modulo its length
	Seq     bool
	Query   int // a pool index
	Lo, N   int
	Pinned  bool
}

// GoString prints the op as a Go literal of its non-zero fields.
func (o histOp) GoString() string {
	v := reflect.ValueOf(o)
	fields := []string{"Kind: " + kindNames[o.Kind]}
	for i := 1; i < v.NumField(); i++ {
		if f := v.Field(i); !f.IsZero() {
			fields = append(fields, fmt.Sprintf("%s: %#v", v.Type().Field(i).Name, f.Interface()))
		}
	}
	return "{" + strings.Join(fields, ", ") + "}"
}

// history is one replayable run: the corpus it starts from and its ops.
type history struct {
	Seed    int64
	Profile string // the pool: "synthetic" or "treebank"
	Parts   int    // the corpus's part count
	Store   bool   // the corpus lives in a segment store
	Seeded  int    // the corpus starts with pool[:Seeded]
	IncTau  int    // the Incremental stream's threshold
	Ops     []histOp

	forgetRemoves bool // a deliberately wrong model, for the harness's self-test
}

// GoString prints h as a literal replayHistory accepts.
func (h history) GoString() string {
	ops := ""
	for _, op := range h.Ops {
		ops += fmt.Sprintf("\t%#v,\n", op)
	}
	return fmt.Sprintf("history{Seed: %d, Profile: %q, Parts: %d, Store: %v, Seeded: %d, IncTau: %d, Ops: []histOp{\n%s}}",
		h.Seed, h.Profile, h.Parts, h.Store, h.Seeded, h.IncTau, ops)
}

var (
	histMethods = []treejoin.Method{
		treejoin.MethodPartSJ, treejoin.MethodSTR, treejoin.MethodSET, treejoin.MethodBruteForce,
		treejoin.MethodHistogram, treejoin.MethodEulerString, treejoin.MethodPQGram,
	}
	histTaus    = []int{0, 1, 2, 4}
	histWorkers = []int{1, 2, 4}
	histParts   = []int{1, 2, 3, 4, 7}
)

// The pools every history draws its trees from: three tiny trees (of 1, 2
// and 4 nodes, below δ = 2τ+1 from τ = 2: PartSJ's small-tree path) and 100
// generated ones. A history seeds its corpus with 50–57 of them, enough for
// the token index.
const poolSize = 103

var pools = map[string]func() *pool{
	"synthetic": sync.OnceValue(func() *pool {
		return newPool(withTiny(synth.Generate(synth.SyntheticParams(100, 3, 5, 20, 30, 37))))
	}),
	"treebank": sync.OnceValue(func() *pool {
		p := synth.TreebankParams(100, 41)
		p.AvgSize = 30
		return newPool(withTiny(synth.Generate(p)))
	}),
}

func withTiny(ts []*treejoin.Tree) []*treejoin.Tree {
	var tiny []*treejoin.Tree
	for _, s := range []string{"{a}", "{a{b}}", "{a{b}{c{d}}}"} {
		tiny = append(tiny, treejoin.MustParseBracket(s, ts[0].Labels))
	}
	return append(tiny, ts...)
}

// pool is a fixed list of trees with their pairwise distances, from
// ZhangShasha, memoised for the pairs some check needed.
type pool struct {
	trees []*treejoin.Tree
	index map[*treejoin.Tree]int // back from a view's trees

	mu   sync.Mutex
	dist map[[2]int]int
}

func newPool(ts []*treejoin.Tree) *pool {
	p := &pool{trees: ts, index: make(map[*treejoin.Tree]int), dist: make(map[[2]int]int)}
	for i, t := range ts {
		p.index[t] = i
	}
	return p
}

// distance is the memoised ZhangShasha distance of pool trees a and b.
func (p *pool) distance(a, b int) int {
	key := [2]int{min(a, b), max(a, b)}
	p.mu.Lock()
	d, ok := p.dist[key]
	p.mu.Unlock()
	if !ok {
		d = ted.ZhangShasha(p.trees[key[0]], p.trees[key[1]])
		p.mu.Lock()
		p.dist[key] = d
		p.mu.Unlock()
	}
	return d
}

// model is what a corpus must hold: its live trees as pool indexes, and
// their ids, in position order.
type model struct {
	trees   []int
	ids     []int
	nextID  int
	removed []int // every id removed so far, none of which PosOf may find
	version int   // bumped by every mutation
}

// join lists the pairs of live position i and others' j within tau of each
// other, with j > i for a self join (others = m.trees).
func (m *model) join(p *pool, others []int, self bool, tau int) []treejoin.Pair {
	var out []treejoin.Pair
	for i, a := range m.trees {
		for j, b := range others {
			// Each edit operation changes the node count by at most one.
			if (!self || j > i) && abs(p.trees[a].Size()-p.trees[b].Size()) <= tau {
				if d := p.distance(a, b); d <= tau {
					out = append(out, treejoin.Pair{I: i, J: j, Dist: d})
				}
			}
		}
	}
	return out
}

func abs(x int) int { return max(x, -x) }

// positions returns, ascending, the live position of a copy of each pool tree
// in picks — the first copy no earlier pick took — skipping picks no copy of
// is live. A pick names a tree, not a position, so it removes the same tree
// whatever a shrunk history dropped before it.
func (m *model) positions(picks []int) []int {
	var at []int
	for _, k := range picks {
		for p, t := range m.trees {
			if t == k && !slices.Contains(at, p) {
				at = append(at, p)
				break
			}
		}
	}
	slices.Sort(at)
	return at
}

func (m *model) topK(p *pool, k int) []treejoin.Pair {
	pairs := m.join(p, m.trees, true, math.MaxInt)
	slices.SortFunc(pairs, func(a, b treejoin.Pair) int { return cmp.Or(a.Dist-b.Dist, a.I-b.I, a.J-b.J) })
	return pairs[:min(k, len(pairs))]
}

func (m *model) knn(p *pool, q, k int) []treejoin.Match {
	ms := make([]treejoin.Match, len(m.trees))
	for i, a := range m.trees {
		ms[i] = treejoin.Match{Pos: i, Dist: p.distance(a, q)}
	}
	slices.SortFunc(ms, func(a, b treejoin.Match) int { return cmp.Or(a.Dist-b.Dist, a.Pos-b.Pos) })
	return ms[:min(k, len(ms))]
}

// planVariants are the plans a join can run: its method's default and the
// method behind prefilter chains. Every one must give the default plan's
// answer.
var planVariants = []struct {
	name       string
	prefilters []treejoin.Prefilter
}{
	{"default", nil},
	{"prefilter-hist", []treejoin.Prefilter{treejoin.PrefilterHistogram}},
	{"prefilter-set-str", []treejoin.Prefilter{treejoin.PrefilterSET, treejoin.PrefilterSTR}},
	{"prefilter-hist-pqg-eul", []treejoin.Prefilter{treejoin.PrefilterHistogram, treejoin.PrefilterPQGram, treejoin.PrefilterEulerString}},
}

// ownStage is each signature method's own filter stage: the method's chain
// on the sorted loop is MethodBruteForce with that stage last.
var ownStage = map[treejoin.Method]treejoin.Prefilter{
	treejoin.MethodSTR: treejoin.PrefilterSTR, treejoin.MethodSET: treejoin.PrefilterSET,
	treejoin.MethodHistogram: treejoin.PrefilterHistogram, treejoin.MethodEulerString: treejoin.PrefilterEulerString,
	treejoin.MethodPQGram: treejoin.PrefilterPQGram,
}

// tally records what a run of histories exercised: the (query kind, method)
// cells and the candidate sources the joins reported.
type tally struct {
	mu      sync.Mutex
	cells   map[string]int
	sources map[string]int
}

func newTally() *tally { return &tally{cells: map[string]int{}, sources: map[string]int{}} }

func (tl *tally) note(cell, source string) {
	if tl == nil {
		return
	}
	tl.mu.Lock()
	defer tl.mu.Unlock()
	tl.cells[cell]++
	if source != "" {
		src, _, _ := strings.Cut(source, "(")
		tl.sources[src]++
	}
}

// requireAll fails t unless every cell ran and the joins read both the
// token index and the sorted loop.
func (tl *tally) requireAll(t *testing.T) {
	t.Helper()
	t.Logf("cells %v, sources %v", tl.cells, tl.sources)
	cells := []string{"Search", "TopK", "KNN", "Incremental"}
	for _, kind := range []string{"SelfJoin", "SelfJoinSeq", "Join", "JoinSeq"} {
		for _, m := range histMethods {
			cells = append(cells, kind+"/"+m.String())
		}
	}
	for _, cell := range cells {
		if tl.cells[cell] == 0 {
			t.Errorf("the histories never ran %s", cell)
		}
	}
	for _, src := range []string{"token-index", "sorted-loop"} {
		if tl.sources[src] == 0 {
			t.Errorf("no join read the %s", src)
		}
	}
}

// checker runs one query against a corpus and holds the answer and its
// Stats to the model.
type checker struct {
	pool *pool
	tl   *tally
	// seen holds each join's counts (workerInvariant) per membership
	// version, part count and query, at whatever worker count ran first; nil
	// skips the check.
	seen map[string]string
}

// workerInvariant prints what a join's Stats must hold at every worker
// count: candidates, results, the token index's postings read and partners
// skipped by count, and every stage's offered and pruned pairs.
func workerInvariant(st treejoin.Stats) string {
	s := fmt.Sprintf("candidates %d, results %d, postings %d, skipped %d, stages", st.Candidates, st.Results, st.PostingsScanned, st.SkippedByCount)
	for _, g := range st.Stages {
		s += fmt.Sprintf(" %s %d/%d", g.Name, g.Pruned, g.In)
	}
	return s
}

func (c *checker) query(op histOp, cp *treejoin.Corpus, m *model, feed []*treejoin.Tree) error {
	ctx := context.Background()
	switch op.Kind {
	case opSelfJoin, opJoin:
		return c.join(op, cp, m, feed)
	case opSearch:
		c.tl.note("Search", "")
		got, err := cp.Search(ctx, feed[op.Query], op.Tau, treejoin.WithWorkers(op.Workers))
		var want []treejoin.Match
		for _, pr := range m.join(c.pool, []int{op.Query}, false, op.Tau) {
			want = append(want, treejoin.Match{Pos: pr.I, Dist: pr.Dist})
		}
		return same(fmt.Sprintf("Search τ=%d", op.Tau), got, want, err)
	case opTopK:
		c.tl.note("TopK", "")
		got, err := cp.TopK(ctx, op.K, treejoin.WithWorkers(op.Workers))
		return same(fmt.Sprintf("TopK k=%d", op.K), got, m.topK(c.pool, op.K), err)
	case opKNN:
		c.tl.note("KNN", "")
		got, err := cp.KNN(ctx, feed[op.Query], op.K, treejoin.WithWorkers(op.Workers))
		return same(fmt.Sprintf("KNN k=%d", op.K), got, m.knn(c.pool, op.Query, op.K), err)
	}
	return nil
}

func (c *checker) join(op histOp, cp *treejoin.Corpus, m *model, feed []*treejoin.Tree) error {
	v := planVariants[op.Plan%len(planVariants)]
	opts := []treejoin.Option{treejoin.WithMethod(op.Method), treejoin.WithWorkers(op.Workers), treejoin.WithPrefilter(v.prefilters...)}
	kind, want, trees := "SelfJoin", m.join(c.pool, m.trees, true, op.Tau), cp.Len()
	var other *treejoin.Corpus
	if op.Kind == opJoin {
		var err error
		if other, err = treejoin.NewSharded(max(op.Parts, 1), feed[op.Lo:op.Lo+op.N]); err != nil {
			return err
		}
		idx := make([]int, op.N)
		for i := range idx {
			idx[i] = op.Lo + i
		}
		kind, want, trees = "Join", m.join(c.pool, idx, false, op.Tau), trees+op.N
	}
	if op.Seq {
		kind += "Seq"
	}
	name := fmt.Sprintf("%s %v τ=%d plan=%s workers=%d", kind, op.Method, op.Tau, v.name, op.Workers)
	got, st, err := joinOnce(cp, other, op.Tau, op.Seq, opts)
	if err := same(name, got, want, err); err != nil {
		return err
	}
	if err := statsInvariants(st, len(got), trees); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	c.tl.note(kind+"/"+op.Method.String(), st.Source)
	if c.seen != nil {
		key := fmt.Sprintf("%d %d %v %v %d %s %d-%d/%d", m.version, cp.NumShards(), op.Kind, op.Method, op.Tau, v.name, op.Lo, op.N, op.Parts)
		now := workerInvariant(st)
		if was, ok := c.seen[key]; ok && was != now {
			return fmt.Errorf("%s: %s; %s at another worker count on the same trees and parts", name, now, was)
		}
		c.seen[key] = now
	}
	if strings.HasPrefix(st.Source, "token-index(") {
		// The same chain on the sorted loop: the method's stage after the
		// prefilters, on MethodBruteForce.
		loop := append(slices.Clip(opts), treejoin.WithMethod(treejoin.MethodBruteForce), treejoin.WithPrefilter(ownStage[op.Method]))
		lgot, lst, err := joinOnce(cp, other, op.Tau, false, loop)
		if err := same(name+" on the sorted loop", lgot, want, err); err != nil {
			return err
		}
		if lst.Source != "sorted-loop" || lst.Candidates < st.Candidates {
			return fmt.Errorf("%s: %d candidates from %s, %d from the sorted loop (%s)", name, st.Candidates, st.Source, lst.Candidates, lst.Source)
		}
		c.tl.note(kind+"/"+op.Method.String(), lst.Source)
	}
	return nil
}

// joinOnce runs a self join (other nil) or a cross join, as a slice or as a
// sequence collected into canonical order.
func joinOnce(cp, other *treejoin.Corpus, tau int, seq bool, opts []treejoin.Option) ([]treejoin.Pair, treejoin.Stats, error) {
	ctx := context.Background()
	if !seq {
		if other == nil {
			return cp.SelfJoin(ctx, tau, opts...)
		}
		return cp.Join(ctx, other, tau, opts...)
	}
	var st treejoin.Stats
	opts = append(slices.Clip(opts), treejoin.WithStats(&st))
	var pairs iter.Seq[treejoin.Pair]
	var err error
	if other == nil {
		pairs, err = cp.SelfJoinSeq(ctx, tau, opts...)
	} else {
		pairs, err = cp.JoinSeq(ctx, other, tau, opts...)
	}
	if err != nil {
		return nil, st, err
	}
	return slices.SortedFunc(pairs, byIJ), st, nil
}

func byIJ(a, b treejoin.Pair) int { return cmp.Or(a.I-b.I, a.J-b.J) }

// statsInvariants checks what every join's Stats must satisfy.
func statsInvariants(st treejoin.Stats, results, trees int) error {
	if st.Results != int64(results) || st.Trees != trees {
		return fmt.Errorf("Stats.Results %d, Trees %d for %d pairs over %d trees", st.Results, st.Trees, results, trees)
	}
	if funnel := st.DPAvoided + st.Certified + st.StrategyLeft + st.StrategyRight; funnel != st.Candidates ||
		st.SeqRejects > st.DPAvoided || st.Certified > st.Results {
		return fmt.Errorf("%d candidates, but the verify funnel sums to %d (%d rejected with no DP, %d of them by the string screen; %d certified): %+v",
			st.Candidates, funnel, st.DPAvoided, st.SeqRejects, st.Certified, st)
	}
	for k := 1; k < len(st.Stages); k++ {
		if st.Stages[k].In != st.Stages[k-1].Out() {
			return fmt.Errorf("stage %d takes %d pairs, stage %d passed %d", k, st.Stages[k].In, k-1, st.Stages[k-1].Out())
		}
	}
	return nil
}

// same compares an answer with the model's.
func same[T comparable](what string, got, want []T, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	if slices.Equal(got, want) {
		return nil
	}
	i := 0
	for i < min(len(got), len(want)) && got[i] == want[i] {
		i++
	}
	return fmt.Errorf("%s: %d results, the model %d; from %d on %v, the model %v",
		what, len(got), len(want), i, got[i:min(i+1, len(got))], want[i:min(i+1, len(want))])
}

// replayer replays one history against a corpus and the model.
type replayer struct {
	checker
	h     history
	base  string // where store directories go
	dir   string
	parts int
	cp    *treejoin.Corpus
	feed  []*treejoin.Tree // the pool in cp's label table
	m     *model
	pin   *replayer // a copy holding the pinned Snapshot and its model

	inc     *treejoin.Incremental // mirrors every mutation; stream position = corpus id
	incFeed []*treejoin.Tree      // the pool in the stream's label table: the first store's
	mirror  map[treejoin.Pair]bool
}

// replay runs h, returning the first disagreement with the model.
func replay(h history, base string, tl *tally) (err error) {
	p := pools[h.Profile]()
	r := &replayer{checker: checker{pool: p, tl: tl, seen: map[string]string{}}, h: h, base: base, parts: h.Parts,
		m: &model{nextID: h.Seeded}, mirror: map[treejoin.Pair]bool{}}
	defer func() {
		if e := recover(); e != nil {
			err = fmt.Errorf("panic: %v\n%s", e, debug.Stack())
		}
		if r.cp != nil {
			r.cp.Close()
		}
	}()
	if err := r.open(); err != nil {
		return err
	}
	for i, op := range h.Ops {
		if err := r.step(op); err != nil {
			return fmt.Errorf("op %d %#v: %w", i, op, err)
		}
		if err := checkIDs(r.cp, r.m, r.feed, r.parts, h.Store); err != nil {
			return fmt.Errorf("after op %d %#v: %w", i, op, err)
		}
		if pin := r.pin; pin != nil {
			if err := checkIDs(pin.cp, pin.m, pin.feed, pin.parts, h.Store); err != nil {
				return fmt.Errorf("after op %d %#v, the pinned Snapshot: %w", i, op, err)
			}
		}
	}
	return nil
}

func (r *replayer) open() (err error) {
	seed := r.pool.trees[:r.h.Seeded]
	if r.h.Store {
		if r.dir, err = os.MkdirTemp(r.base, "store"); err != nil {
			return err
		}
		if r.cp, err = treejoin.OpenSharded(r.dir, r.parts, treejoin.WithMemtableBudget(16), treejoin.WithStoreNoSync()); err != nil {
			return err
		}
		r.feed = reintern(r.pool.trees, r.cp.Labels())
		if _, err := r.cp.Add(r.feed[:r.h.Seeded]...); err != nil {
			return err
		}
	} else {
		if r.cp, err = treejoin.NewSharded(r.parts, seed); err != nil {
			return err
		}
		r.feed = r.pool.trees
	}
	if r.inc, err = r.cp.Incremental(r.h.IncTau); err != nil {
		return err
	}
	r.incFeed = r.feed
	for i := range seed {
		r.m.trees, r.m.ids = append(r.m.trees, i), append(r.m.ids, i)
		r.incAdd(i)
	}
	return nil
}

func (r *replayer) step(op histOp) (err error) {
	switch op.Kind {
	case opAdd:
		ids, err := r.cp.Add(pickTrees(r.feed, op.Trees)...)
		if err != nil {
			return err
		}
		for i, k := range op.Trees {
			if ids[i] != r.m.nextID {
				return fmt.Errorf("Add gave id %d, the model %d", ids[i], r.m.nextID)
			}
			r.m.trees, r.m.ids, r.m.nextID = append(r.m.trees, k), append(r.m.ids, r.m.nextID), r.m.nextID+1
			r.incAdd(k)
		}
		r.m.version++
	case opRemove:
		at := r.m.positions(op.Picks)
		ids := make([]int, len(at))
		for i, p := range at {
			ids[i] = r.m.ids[p]
		}
		unknown := -1
		if n := len(r.m.removed); n > 0 {
			unknown = r.m.removed[n-1]
		}
		if n := r.cp.Remove(append(ids, unknown)...); n != len(ids) {
			return fmt.Errorf("Remove(%v and unknown %d) removed %d", ids, unknown, n)
		}
		if !r.h.forgetRemoves {
			for i := len(at) - 1; i >= 0; i-- {
				r.m.trees, r.m.ids = slices.Delete(r.m.trees, at[i], at[i]+1), slices.Delete(r.m.ids, at[i], at[i]+1)
			}
		}
		for _, id := range ids {
			if !r.inc.Remove(id) {
				return fmt.Errorf("Incremental.Remove(%d) found no live tree", id)
			}
			r.m.removed = append(r.m.removed, id)
		}
		for _, p := range r.inc.Retracted() {
			if !r.mirror[p] {
				return fmt.Errorf("Incremental retracted %v, which no Add reported", p)
			}
			delete(r.mirror, p)
		}
		r.m.version++
	case opPin:
		pin, m := *r, *r.m
		m.trees, m.ids, m.removed = slices.Clone(m.trees), slices.Clone(m.ids), slices.Clone(m.removed)
		pin.cp, pin.m = r.cp.Snapshot(), &m
		r.pin = &pin
	case opReopen, opSave:
		if !r.h.Store {
			return nil
		}
		dir := r.dir
		if op.Kind == opSave {
			if dir, err = os.MkdirTemp(r.base, "saved"); err != nil {
				return err
			}
			if err := r.cp.SaveTo(dir); err != nil {
				return err
			}
		}
		if err := r.cp.Close(); err != nil {
			return err
		}
		r.dir, r.parts = dir, max(op.Parts, 1)
		if r.cp, err = treejoin.OpenSharded(r.dir, r.parts, treejoin.WithMemtableBudget(16), treejoin.WithStoreNoSync()); err != nil {
			return err
		}
		r.feed = reintern(r.pool.trees, r.cp.Labels())
	case opCompact:
		if r.h.Store {
			return r.cp.Compact()
		}
	case opIncremental:
		return r.checkIncremental()
	default:
		if op.Pinned && r.pin != nil {
			return r.query(op, r.pin.cp, r.pin.m, r.pin.feed)
		}
		return r.query(op, r.cp, r.m, r.feed)
	}
	return nil
}

func (r *replayer) incAdd(k int) {
	for _, p := range r.inc.Add(r.incFeed[k]) {
		r.mirror[p] = true
	}
}

// checkIDs holds cp's membership to the model: its length and part count; at
// every position the model's tree in feed (the same pointer, or for a store,
// whose trees come back decoded, the same bracket form) and an id that
// ascends with position and that PosOf maps back; and no removed id PosOf
// still finds.
func checkIDs(cp *treejoin.Corpus, m *model, feed []*treejoin.Tree, parts int, store bool) error {
	if cp.Len() != len(m.trees) || cp.NumShards() != parts {
		return fmt.Errorf("%d trees on %d parts, the model %d on %d", cp.Len(), cp.NumShards(), len(m.trees), parts)
	}
	for p, id := range m.ids {
		got, want := cp.Tree(p), feed[m.trees[p]]
		if got != want && (!store || treejoin.FormatBracket(got) != treejoin.FormatBracket(want)) {
			return fmt.Errorf("position %d holds %s, the model pool tree %d, %s",
				p, treejoin.FormatBracket(got), m.trees[p], treejoin.FormatBracket(want))
		}
		if cp.ID(p) != id {
			return fmt.Errorf("position %d holds id %d, the model %d", p, cp.ID(p), id)
		}
		if q, ok := cp.PosOf(id); !ok || q != p || p > 0 && m.ids[p-1] >= id {
			return fmt.Errorf("PosOf(%d) = %d, %v at position %d", id, q, ok, p)
		}
	}
	for _, id := range m.removed {
		if q, ok := cp.PosOf(id); ok {
			return fmt.Errorf("PosOf finds removed id %d at position %d", id, q)
		}
	}
	return nil
}

// checkIncremental holds the stream to the self join of its live trees, and
// the mirror that replays Add's returns minus Retracted() to the stream's
// Pairs.
func (r *replayer) checkIncremental() error {
	r.tl.note("Incremental", "")
	var want []treejoin.Pair
	for _, p := range r.m.join(r.pool, r.m.trees, true, r.h.IncTau) {
		want = append(want, treejoin.Pair{I: r.m.ids[p.I], J: r.m.ids[p.J], Dist: p.Dist})
	}
	got := r.inc.Pairs()
	if err := same(fmt.Sprintf("Incremental τ=%d", r.h.IncTau), got, want, nil); err != nil {
		return err
	}
	if err := same("Add returns minus Retracted", slices.SortedFunc(maps.Keys(r.mirror), byIJ), got, nil); err != nil {
		return err
	}
	st := r.inc.Stats()
	if funnel := st.DPAvoided + st.Certified + st.StrategyLeft + st.StrategyRight; funnel != st.Candidates {
		return fmt.Errorf("Incremental: %d candidates, but the verify funnel sums to %d", st.Candidates, funnel)
	}
	if r.inc.Len() != r.m.nextID || r.inc.Live() != len(r.m.trees) || st.Trees != r.inc.Len() {
		return fmt.Errorf("Incremental holds %d trees, %d live (Stats.Trees %d); the model %d, %d", r.inc.Len(), r.inc.Live(), st.Trees, r.m.nextID, len(r.m.trees))
	}
	return nil
}

// mix is an entry point's recipe for its histories.
type mix struct {
	steps      int
	weights    [numKinds]int
	store      bool // persistent histories, which also draw the store ops
	concurrent bool // a writer runs the mutations while readers query (runConcurrent)
	bulk       bool // a quarter of the removes take all but ten live trees
}

// genHistory draws a history from seed.
func genHistory(seed int64, mx mix) history {
	rng := rand.New(rand.NewSource(seed))
	pick := func(xs []int) int { return xs[rng.Intn(len(xs))] }
	h := history{Seed: seed, Profile: []string{"synthetic", "treebank"}[rng.Intn(2)], Parts: pick(histParts),
		Store: mx.store, Seeded: 50 + rng.Intn(8), IncTau: pick(histTaus)}
	total := 0
	for _, w := range mx.weights {
		total += w
	}
	live, joins := make([]int, h.Seeded), [2]int{} // live: the pool indexes of the live trees
	for i := range live {
		live[i] = i
	}
	var last histOp
	for len(h.Ops) < mx.steps {
		x := rng.Intn(total)
		op := histOp{}
		for op.Kind = 0; x >= mx.weights[op.Kind]; op.Kind++ {
			x -= mx.weights[op.Kind]
		}
		switch op.Kind {
		case opAdd:
			for range 1 + rng.Intn(4) {
				op.Trees = append(op.Trees, rng.Intn(poolSize))
			}
			live = append(live, op.Trees...)
		case opRemove:
			n := 1 + rng.Intn(4)
			if mx.bulk && rng.Intn(4) == 0 {
				n = len(live)
			}
			for range min(n, len(live)-10) {
				i := rng.Intn(len(live))
				op.Picks = append(op.Picks, live[i])
				live = slices.Delete(live, i, i+1)
			}
		case opReopen, opSave:
			op.Parts = pick(histParts)
		case opSelfJoin, opJoin:
			if last.Kind == op.Kind && rng.Intn(3) == 0 { // the same join at another worker count
				op, op.Workers = last, last.Workers%4+1
				break
			}
			// Methods and the Seq form go round, so every cell runs.
			n := joins[op.Kind-opSelfJoin]
			joins[op.Kind-opSelfJoin]++
			op.Method, op.Seq, op.Tau, op.Workers = histMethods[n%len(histMethods)], n/len(histMethods)%2 == 1, pick(histTaus), pick(histWorkers)
			op.Plan = rng.Intn(len(planVariants))
			if op.Kind == opJoin {
				op.N, op.Parts = 10+rng.Intn(20), pick(histParts)
				op.Lo = rng.Intn(poolSize - op.N)
			}
		case opSearch:
			op.Tau, op.Query, op.Workers = pick(histTaus), rng.Intn(poolSize), pick(histWorkers)
		case opTopK, opKNN:
			op.K, op.Workers = pick([]int{1, 3, 5, 20}), pick(histWorkers)
			if op.Kind == opKNN {
				op.Query = rng.Intn(poolSize)
			}
		}
		if op.Kind >= opSelfJoin && op.Kind < opIncremental {
			op.Pinned = rng.Intn(4) == 0
		}
		h.Ops = append(h.Ops, op)
		last = op
	}
	return h
}

// shrink drops ops from a failing history, halves first and then ever
// smaller runs down to single ops, for as long as it still fails, and
// returns the smallest failing history and its error.
func shrink(h history, base string, err error) (history, error) {
	for chunk := len(h.Ops) / 2; chunk >= 1; chunk /= 2 {
		for i := 0; i+chunk <= len(h.Ops); {
			c := h
			c.Ops = slices.Concat(h.Ops[:i], h.Ops[i+chunk:])
			if e := replay(c, base, nil); e != nil {
				h, err = c, e
				continue
			}
			i += chunk
		}
	}
	return h, err
}

// replayHistory replays h and fails t with the shrunk history if it fails.
func replayHistory(t *testing.T, h history, tl *tally) {
	t.Helper()
	base := t.TempDir()
	if err := replay(h, base, tl); err != nil {
		small, err := shrink(h, base, err)
		t.Fatalf("history failed: %v\nshrunk from %d to %d ops; replay it with\n\treplayHistory(t, %#v, nil)", err, len(h.Ops), len(small.Ops), small)
	}
}

// runHistories draws n histories from consecutive seeds and replays each.
func runHistories(t *testing.T, seed int64, n int, mx mix) *tally {
	t.Helper()
	tl := newTally()
	for i := range int64(n) {
		h := genHistory(seed+i, mx)
		if !mx.concurrent {
			replayHistory(t, h, tl)
		} else if err := runConcurrent(h, tl); err != nil {
			t.Fatalf("concurrent history failed: %v\n%#v", err, h)
		}
	}
	return tl
}

// runConcurrent runs h's mutations on one writer while two readers run h's
// queries on pinned Snapshots, each checked against the model of the view's
// own trees; reader 0 runs every other query as a self join on the live
// corpus instead (liveJoin). The writer makes one mutation per query a
// reader finishes, so the readers see many epochs while the corpus moves on.
func runConcurrent(h history, tl *tally) error {
	p := pools[h.Profile]()
	cp, err := treejoin.NewSharded(h.Parts, p.trees[:h.Seeded])
	if err != nil {
		return err
	}
	var queries []histOp
	for _, op := range h.Ops {
		if op.Kind >= opSelfJoin && op.Kind < opIncremental {
			queries = append(queries, op)
		}
	}
	if len(queries) == 0 {
		return fmt.Errorf("a concurrent history needs queries")
	}
	var first error
	var once sync.Once
	ctx, stop := context.WithCancel(context.Background())
	fail := func(err error) { once.Do(func() { first = err; stop() }) }
	tick := make(chan struct{}, 1)
	var wg sync.WaitGroup
	for r := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &checker{pool: p, tl: tl}
			for n := 0; ctx.Err() == nil; n++ {
				var err error
				if r == 0 && n%2 == 1 {
					err = liveJoin(cp, histMethods[n/2%len(histMethods)])
				} else {
					err = c.view(cp.Snapshot(), h.Parts, queries[(2*n+r)%len(queries)])
				}
				if err != nil {
					fail(fmt.Errorf("reader %d: %w", r, err))
					return
				}
				select {
				case tick <- struct{}{}:
				default:
				}
			}
		}()
	}
	for _, op := range h.Ops {
		if op.Kind != opAdd && op.Kind != opRemove {
			continue
		}
		select {
		case <-tick:
		case <-ctx.Done():
		}
		if op.Kind == opRemove {
			view := &model{}
			for k, t := range cp.Trees() {
				view.trees, view.ids = append(view.trees, p.index[t]), append(view.ids, cp.ID(k))
			}
			for _, at := range view.positions(op.Picks) {
				cp.Remove(view.ids[at])
			}
		} else if _, err := cp.Add(pickTrees(p.trees, op.Trees)...); err != nil {
			fail(err)
		}
	}
	stop()
	wg.Wait()
	return first
}

// view runs op on a pinned Snapshot after holding the view's ids to ID/PosOf
// (checkIDs, against the model of the view's own trees).
func (c *checker) view(view *treejoin.Corpus, parts int, op histOp) error {
	m := &model{}
	for k, t := range view.Trees() {
		m.trees, m.ids = append(m.trees, c.pool.index[t]), append(m.ids, view.ID(k))
	}
	if err := checkIDs(view, m, c.pool.trees, parts, false); err != nil {
		return fmt.Errorf("a view of %d trees: %w", view.Len(), err)
	}
	if err := c.query(op, view, m, c.pool.trees); err != nil {
		return fmt.Errorf("a view of %d trees: %w", view.Len(), err)
	}
	return nil
}

// liveJoin runs a τ=2 self join on the live corpus while the writer mutates
// it. No model holds still for it, so its pairs need only index the state
// the join ran on (Stats.Trees) within the threshold, and its Stats keep
// their invariants.
func liveJoin(cp *treejoin.Corpus, m treejoin.Method) error {
	const tau = 2
	pairs, st, err := cp.SelfJoin(context.Background(), tau, treejoin.WithMethod(m), treejoin.WithWorkers(2))
	if err != nil {
		return fmt.Errorf("live %v SelfJoin: %w", m, err)
	}
	for _, pr := range pairs {
		if pr.I < 0 || pr.I >= pr.J || pr.J >= st.Trees || pr.Dist > tau {
			return fmt.Errorf("live %v SelfJoin: pair %+v outside its state of %d trees", m, pr, st.Trees)
		}
	}
	if err := statsInvariants(st, len(pairs), st.Trees); err != nil {
		return fmt.Errorf("live %v SelfJoin: %w", m, err)
	}
	return nil
}

// pickTrees returns feed's trees at the given pool indexes.
func pickTrees(feed []*treejoin.Tree, at []int) []*treejoin.Tree {
	ts := make([]*treejoin.Tree, len(at))
	for i, k := range at {
		ts[i] = feed[k]
	}
	return ts
}

// checkCorpus holds every method's self join of cp, at every threshold, to
// the model of cp's own trees.
func checkCorpus(t *testing.T, cp *treejoin.Corpus) {
	t.Helper()
	c := &checker{pool: newPool(cp.Trees())}
	m := &model{}
	for k := range cp.Len() {
		m.trees, m.ids = append(m.trees, k), append(m.ids, cp.ID(k))
	}
	for _, meth := range histMethods {
		for _, tau := range histTaus {
			if err := c.query(histOp{Kind: opSelfJoin, Method: meth, Tau: tau, Workers: 2}, cp, m, c.pool.trees); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// everything weighs every in-memory op kind.
var everything = [numKinds]int{opAdd: 3, opRemove: 3, opPin: 1, opSelfJoin: 6, opJoin: 3, opSearch: 1, opTopK: 1, opKNN: 1, opIncremental: 1}

// TestHistoryShrinks is the harness's self-test: a model that forgets every
// Remove must fail, and the failure must shrink to at most three ops.
func TestHistoryShrinks(t *testing.T) {
	h := genHistory(7, mix{steps: 30, weights: everything})
	h.forgetRemoves = true
	base := t.TempDir()
	err := replay(h, base, nil)
	if err == nil {
		t.Fatal("a model that forgets Removes passed")
	}
	if small, _ := shrink(h, base, err); len(small.Ops) > 3 {
		t.Fatalf("the failure shrank to %d ops:\n%#v", len(small.Ops), small)
	}
}

// TestMutationOracle: Add/Remove histories with every query between them. The
// run must show every (query kind, method) cell and both candidate sources.
func TestMutationOracle(t *testing.T) {
	runHistories(t, 41, 4, mix{steps: 150, weights: everything}).requireAll(t)
}

// TestMutationOracleChurn: removal-heavy histories, then regrowth.
func TestMutationOracleChurn(t *testing.T) {
	runHistories(t, 53, 1, mix{steps: 90, weights: [numKinds]int{opAdd: 2, opRemove: 6, opSelfJoin: 3, opSearch: 1}})
}

// TestPersistenceOracle: histories over a segment store, crossing the storage
// boundary (reopen on another part count, compaction, SaveTo) between queries.
func TestPersistenceOracle(t *testing.T) {
	runHistories(t, 43, 2, mix{steps: 120, store: true, weights: [numKinds]int{
		opAdd: 3, opRemove: 3, opPin: 1, opReopen: 2, opCompact: 1, opSave: 1,
		opSelfJoin: 4, opJoin: 1, opSearch: 1, opTopK: 1, opKNN: 1, opIncremental: 1}})
}

// TestPlanEquivalenceOracle: every method behind every prefilter chain gives
// the default plan's answer, before and after mutations.
func TestPlanEquivalenceOracle(t *testing.T) {
	runHistories(t, 3, 1, mix{steps: 90, weights: [numKinds]int{opAdd: 1, opRemove: 1, opSelfJoin: 4, opJoin: 2}})
}

func TestShardedSelfJoinOracle(t *testing.T) {
	runHistories(t, 11, 2, mix{steps: 45, weights: [numKinds]int{opAdd: 1, opRemove: 1, opSelfJoin: 4}})
}

func TestShardedJoinOracle(t *testing.T) {
	runHistories(t, 7, 2, mix{steps: 45, weights: [numKinds]int{opAdd: 1, opRemove: 1, opJoin: 4}})
}

func TestShardedSearchTopKKNNOracle(t *testing.T) {
	runHistories(t, 13, 2, mix{steps: 45, weights: [numKinds]int{opAdd: 1, opRemove: 1, opPin: 1, opSearch: 2, opTopK: 2, opKNN: 2}})
}

func TestShardedMutationOracle(t *testing.T) {
	runHistories(t, 19, 2, mix{steps: 60, weights: [numKinds]int{opAdd: 3, opRemove: 3, opPin: 1, opSelfJoin: 2, opSearch: 1}})
}

func TestCrossJoinMethodAgreement(t *testing.T) {
	runHistories(t, 21, 1, mix{steps: 60, weights: [numKinds]int{opJoin: 1}})
}

func TestSelfJoinMethodAgreement(t *testing.T) {
	runHistories(t, 17, 1, mix{steps: 60, weights: [numKinds]int{opSelfJoin: 1}})
}

// TestParallelismInvariance: joins repeated at other worker counts report
// the same pairs, candidates and results.
func TestParallelismInvariance(t *testing.T) {
	runHistories(t, 23, 2, mix{steps: 45, weights: [numKinds]int{opSelfJoin: 2, opJoin: 1}})
}

func TestPrefilterInvariance(t *testing.T) {
	runHistories(t, 29, 1, mix{steps: 60, weights: [numKinds]int{opAdd: 1, opSelfJoin: 3, opJoin: 2}})
}

func TestSearchMatchesBruteForce(t *testing.T) {
	runHistories(t, 31, 1, mix{steps: 75, weights: [numKinds]int{opRemove: 1, opSelfJoin: 1, opSearch: 6}})
}

func TestKNNMatchesBruteForce(t *testing.T) {
	runHistories(t, 37, 1, mix{steps: 75, weights: [numKinds]int{opAdd: 1, opSelfJoin: 1, opKNN: 6}})
}

func TestCorpusQueriesMatchLegacy(t *testing.T) {
	runHistories(t, 47, 1, mix{steps: 75, weights: [numKinds]int{opAdd: 1, opRemove: 1, opSearch: 2, opTopK: 2, opIncremental: 2}})
}

// TestTokenIndexOracleSweep: every join the token index serves is repeated
// on the sorted loop, which must give the same pairs from at least as
// many candidates.
func TestTokenIndexOracleSweep(t *testing.T) {
	runHistories(t, 59, 1, mix{steps: 90, weights: [numKinds]int{opAdd: 1, opRemove: 1, opSelfJoin: 3, opJoin: 2}})
}

// TestIncrementalMatchesSelfJoin: the stream against the self join of its
// live trees, through bulk removes that compact its index.
func TestIncrementalMatchesSelfJoin(t *testing.T) {
	runHistories(t, 61, 2, mix{steps: 75, bulk: true, weights: [numKinds]int{opAdd: 3, opRemove: 3, opIncremental: 2}})
}

// TestSharedIndexRace: queries on the live corpus right after each mutation,
// then readers on pinned views racing a writer for the shared indexes (run
// under -race).
func TestSharedIndexRace(t *testing.T) {
	runHistories(t, 71, 1, mix{steps: 60, weights: [numKinds]int{opAdd: 2, opRemove: 2, opSelfJoin: 2, opSearch: 1, opKNN: 1}})
	runHistories(t, 73, 1, mix{steps: 120, concurrent: true, weights: everything})
}

func TestShardedConcurrentHammer(t *testing.T) {
	runHistories(t, 42, 2, mix{steps: 180, concurrent: true, weights: [numKinds]int{opAdd: 3, opRemove: 3, opSearch: 2, opKNN: 1, opSelfJoin: 1}})
}

func TestDynamicCorpusRace(t *testing.T) {
	runHistories(t, 61, 2, mix{steps: 120, concurrent: true, weights: everything})
}

// TestIDsAscendWithPosition: ids ascend with position and PosOf inverts ID
// (checkIDs, after every op) on store histories that reopen.
func TestIDsAscendWithPosition(t *testing.T) {
	runHistories(t, 19, 2, mix{steps: 120, store: true, weights: [numKinds]int{opAdd: 3, opRemove: 3, opReopen: 1, opCompact: 1}})
}

// TestCorpusSearchInvalidation: searches after Add and Remove never see a
// stale part index.
func TestCorpusSearchInvalidation(t *testing.T) {
	runHistories(t, 21, 1, mix{steps: 90, weights: [numKinds]int{opAdd: 2, opRemove: 2, opSearch: 4}})
}

// TestShardedSnapshotIsolation: a pinned Snapshot keeps answering for its
// epoch while the corpus moves on.
func TestShardedSnapshotIsolation(t *testing.T) {
	runHistories(t, 5, 1, mix{steps: 90, weights: [numKinds]int{opAdd: 2, opRemove: 2, opPin: 2, opSelfJoin: 2, opSearch: 1}})
}

// TestJoinSupportsEveryMethod: every method runs cross joins.
func TestJoinSupportsEveryMethod(t *testing.T) {
	runHistories(t, 9, 1, mix{steps: 42, weights: [numKinds]int{opJoin: 1}})
}

func TestPublicJoinOptions(t *testing.T) {
	runHistories(t, 4, 1, mix{steps: 30, weights: [numKinds]int{opSelfJoin: 2, opJoin: 1}})
}

func TestPublicSelfJoinMethodsAgree(t *testing.T) {
	runHistories(t, 3, 1, mix{steps: 45, weights: [numKinds]int{opSelfJoin: 1}})
}

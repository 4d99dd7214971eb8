package plan

import (
	"math/rand"
	"testing"

	"treejoin/internal/tree"
)

// chainOfSize builds a unary chain tree with exactly n nodes.
func chainOfSize(lt *tree.LabelTable, n int) *tree.Tree {
	b := tree.NewBuilder(lt)
	p := b.Root("a")
	for i := 1; i < n; i++ {
		p = b.Child(p, "a")
	}
	return b.MustBuild()
}

// bruteWindowPairs is the quadratic reference for countWindowPairs.
func bruteWindowPairs(ts []*tree.Tree, split, tau int) int64 {
	var n int64
	if split < 0 {
		for i := range ts {
			for j := i + 1; j < len(ts); j++ {
				d := ts[i].Size() - ts[j].Size()
				if d < 0 {
					d = -d
				}
				if d <= tau {
					n++
				}
			}
		}
		return n
	}
	for i := 0; i < split; i++ {
		for j := split; j < len(ts); j++ {
			d := ts[i].Size() - ts[j].Size()
			if d < 0 {
				d = -d
			}
			if d <= tau {
				n++
			}
		}
	}
	return n
}

func TestCountWindowPairs(t *testing.T) {
	lt := tree.NewLabelTable()
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(40)
		ts := make([]*tree.Tree, n)
		for i := range ts {
			ts[i] = chainOfSize(lt, 1+rng.Intn(12))
		}
		for _, tau := range []int{0, 1, 2, 4, 100} {
			if got, want := countWindowPairs(ts, -1, tau), bruteWindowPairs(ts, -1, tau); got != want {
				t.Fatalf("self trial %d τ=%d: %d pairs, want %d", trial, tau, got, want)
			}
			split := 1 + rng.Intn(n-1)
			if got, want := countWindowPairs(ts, split, tau), bruteWindowPairs(ts, split, tau); got != want {
				t.Fatalf("cross trial %d τ=%d split=%d: %d pairs, want %d", trial, tau, split, got, want)
			}
		}
	}
}

func TestObsFoldAndDecay(t *testing.T) {
	var o obs
	if usable(&o) {
		t.Fatal("empty bucket must not be usable")
	}
	o.fold(0, obs{in: 100, pruned: 90, ns: 1000, calls: 10}, true)
	if !usable(&o) || !backedByRuns(&o) {
		t.Fatalf("one real fold must be usable and run-backed: w=%v real=%v", o.w, o.real)
	}
	if kill := o.pruned / o.in; kill != 0.9 {
		t.Fatalf("kill = %v, want 0.9", kill)
	}

	// A calibration fold keeps the bucket usable but decays run-backing.
	cal := obs{}
	cal.fold(0, obs{in: 100, pruned: 50, ns: 1000, calls: 10}, false)
	if !usable(&cal) {
		t.Fatal("calibration fold must be usable")
	}
	if backedByRuns(&cal) {
		t.Fatal("calibration-only bucket must not count as run-backed")
	}

	// Epoch decay: after enough mutation epochs the bucket stops being
	// trusted; ratios stay put (both sums decay alike).
	o.age(8) // 0.8^8 ≈ 0.168 < minWeight
	if usable(&o) {
		t.Fatalf("bucket must decay below trust after 8 epochs: w=%v", o.w)
	}
	if kill := o.pruned / o.in; kill < 0.899 || kill > 0.901 {
		t.Fatalf("decay must preserve ratios: kill = %v", kill)
	}
	// Aging never runs backwards.
	w := o.w
	o.age(3)
	if o.w != w || o.epoch != 8 {
		t.Fatalf("bucket aged backwards: w=%v epoch=%d", o.w, o.epoch)
	}

	// A stale-snapshot fold (run epoch < bucket epoch) lands down-weighted.
	fresh := obs{}
	fresh.fold(8, obs{in: 100, pruned: 90, ns: 1000, calls: 10}, true)
	wBefore := fresh.w
	fresh.fold(0, obs{in: 100, pruned: 0, ns: 1000, calls: 10}, true)
	if gain := fresh.w - wBefore*runRetain; gain >= 0.2 {
		t.Fatalf("stale fold must be down-weighted: gained %v weight", gain)
	}
}

func TestNearestLocked(t *testing.T) {
	mm := make(map[key]*obs)
	at(mm, "PQG", 2).fold(0, obs{in: 100, pruned: 90, ns: 100, calls: 10}, true)
	at(mm, "PQG", 4).fold(0, obs{in: 100, pruned: 50, ns: 100, calls: 10}, true)

	if o, ok := nearestLocked(mm, "PQG", 2, 0); !ok || o.pruned/o.in != 0.9 {
		t.Fatalf("exact τ must win: %+v %v", o, ok)
	}
	// τ=3 has no bucket; both 2 and 4 are within the gap, ties go to the
	// smaller τ (the tighter window).
	if o, ok := nearestLocked(mm, "PQG", 3, 0); !ok || o.pruned/o.in != 0.9 {
		t.Fatalf("tie must prefer smaller τ: %+v %v", o, ok)
	}
	// τ=16 accepts a gap of 1+16/2 = 9 — nothing within reach.
	if _, ok := nearestLocked(mm, "PQG", 16, 0); ok {
		t.Fatal("τ=16 must not borrow a τ=4 observation")
	}
	if _, ok := nearestLocked(mm, "HIST", 2, 0); ok {
		t.Fatal("unknown stage must miss")
	}
}

func TestTauAccept(t *testing.T) {
	cases := []struct {
		tau, got int
		want     bool
	}{
		{0, 0, true}, {0, 1, true}, {0, 2, false},
		{2, 0, true}, {2, 4, true}, {2, 5, false},
		{4, 1, true}, {4, 0, false}, {4, 7, true}, {4, 8, false},
	}
	for _, c := range cases {
		if got := tauAccept(c.tau, c.got); got != c.want {
			t.Fatalf("tauAccept(%d, %d) = %v, want %v", c.tau, c.got, got, c.want)
		}
	}
}

func TestNormalizeSource(t *testing.T) {
	cases := map[string]string{
		"token-index(euler-grams/q=3)": "token-index",
		"token-index(labels)":          "token-index",
		"sorted-loop":                  "sorted-loop",
		"partsj":                       "partsj",
		"":                             "",
	}
	for in, want := range cases {
		if got := NormalizeSource(in); got != want {
			t.Fatalf("NormalizeSource(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestOrderAndDrop(t *testing.T) {
	cheapLethal := stageEval{stage: Stage{Name: "PQG"}, cost: 100, kill: 0.9}
	dearWeak := stageEval{stage: Stage{Name: "HIST"}, cost: 2000, kill: 0.2}

	// Ordering: cost-per-kill ascending, regardless of input order.
	got := orderAndDrop([]stageEval{dearWeak, cheapLethal}, 50000)
	if len(got) != 2 || got[0].stage.Name != "PQG" || got[1].stage.Name != "HIST" {
		t.Fatalf("order = %v", evalNames(got))
	}

	// Dropping: a stage whose cost dwarfs the verification it saves goes.
	// With verify at 400ns, HIST saves 0.2·(100·... ) — its 2000ns per pair
	// cannot pay for itself behind PQG.
	got = orderAndDrop([]stageEval{dearWeak, cheapLethal}, 400)
	if len(got) != 1 || got[0].stage.Name != "PQG" {
		t.Fatalf("drop pass kept %v, want [PQG]", evalNames(got))
	}

	// Soundness of the pass itself: never drops everything when a stage
	// pays for itself.
	got = orderAndDrop([]stageEval{cheapLethal}, 50000)
	if len(got) != 1 {
		t.Fatalf("kept %v, want [PQG]", evalNames(got))
	}
	if got := orderAndDrop(nil, 1000); len(got) != 0 {
		t.Fatalf("empty chain grew stages: %v", evalNames(got))
	}
}

func TestChainProfile(t *testing.T) {
	evs := []stageEval{
		{stage: Stage{Name: "PQG"}, cost: 100, kill: 0.9},
		{stage: Stage{Name: "HIST"}, cost: 2000, kill: 0.2},
	}
	chainNs, survival := chainProfile(evs)
	// Correlated model: the second stage runs on the first's survivors
	// (100 + 0.1·2000), and chain survival is the strongest stage's
	// survival, not the independence product.
	if chainNs < 299.99 || chainNs > 300.01 {
		t.Fatalf("chainNs = %v, want 300", chainNs)
	}
	if survival < 0.0999 || survival > 0.1001 {
		t.Fatalf("survival = %v, want 0.1 (min across stages, not 0.08)", survival)
	}
}

func evalNames(evs []stageEval) []string {
	names := make([]string, len(evs))
	for i, ev := range evs {
		names[i] = ev.stage.Name
	}
	return names
}

// TestStaleSnapshotFoldDownWeighted pins the epoch-decay ordering that keeps
// a shared model safe across a corpus and its snapshots: a run observed from
// a snapshot pinned at an older epoch folds in scaled by decayPerEpoch^gap,
// and it never rewinds the bucket's epoch — so it cannot cause the live
// evidence to be decayed a second time by the next live observation.
func TestStaleSnapshotFoldDownWeighted(t *testing.T) {
	var o obs
	o.fold(5, obs{in: 100, pruned: 50}, true) // live run at epoch 5
	if o.epoch != 5 {
		t.Fatalf("bucket epoch %d after live fold, want 5", o.epoch)
	}
	liveIn, livePruned := o.in, o.pruned
	// A snapshot 4 epochs behind reports a kill-everything run.
	o.fold(1, obs{in: 100, pruned: 100}, true)
	if o.epoch != 5 {
		t.Fatalf("stale fold rewound the bucket epoch to %d", o.epoch)
	}
	g := 1.0
	for i := 0; i < 4; i++ {
		g *= decayPerEpoch
	}
	wantIn := liveIn*runRetain + g*100
	wantPruned := livePruned*runRetain + g*100
	if diff := o.in - wantIn; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("stale in folded at weight %.4f of its value, want %.4f", o.in/100, wantIn/100)
	}
	if diff := o.pruned - wantPruned; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("stale pruned folded with the wrong weight")
	}
	// The stale run's pull on the selectivity estimate is bounded by its
	// decayed weight share, not its raw counts.
	sel := o.pruned / o.in
	if maxSel := (runRetain*50 + g*100) / (runRetain*100 + g*100); sel > maxSel+1e-9 {
		t.Fatalf("selectivity %.4f exceeds the down-weighted bound %.4f", sel, maxSel)
	}
	// A later live fold ages from epoch 5 — aging to the same epoch is a
	// no-op, so the live evidence is never double-decayed.
	before := o.in
	o.age(5)
	if o.in != before {
		t.Fatal("age(current epoch) decayed the bucket")
	}
}

// TestWindowPairsStaleEpochGuard: the window-pair memo's epoch only ever
// advances. A query pinned to a stale snapshot gets its own exact count but
// must neither flush the live memo nor leave its count behind under a key a
// live query could read (winKey is (n, split, τ) — two memberships of the
// same size would collide).
func TestWindowPairsStaleEpochGuard(t *testing.T) {
	lt := tree.NewLabelTable()
	m := New()
	live := []*tree.Tree{chainOfSize(lt, 1), chainOfSize(lt, 10)}
	stale := []*tree.Tree{chainOfSize(lt, 4), chainOfSize(lt, 4)}
	if got := m.WindowPairs(live, -1, 2, 5); got != 0 {
		t.Fatalf("live count %d, want 0", got)
	}
	if got := m.WindowPairs(stale, -1, 2, 3); got != 1 {
		t.Fatalf("stale-snapshot count %d, want 1 (served from the live memo?)", got)
	}
	if m.winEpoch != 5 {
		t.Fatalf("stale query rewound the memo epoch to %d", m.winEpoch)
	}
	if got := m.WindowPairs(live, -1, 2, 5); got != 0 {
		t.Fatalf("live count %d after stale query, want 0 (memo poisoned)", got)
	}
	// And a mutation's epoch step still flushes the memo forward.
	bigger := []*tree.Tree{chainOfSize(lt, 6), chainOfSize(lt, 7)}
	if got := m.WindowPairs(bigger, -1, 2, 6); got != 1 {
		t.Fatalf("post-mutation count %d, want 1", got)
	}
	if m.winEpoch != 6 {
		t.Fatalf("memo epoch %d, want 6", m.winEpoch)
	}
}

package plan

import (
	"sort"
	"strings"
	"sync"

	"treejoin/internal/sim"
	"treejoin/internal/tree"
)

// Model is a corpus's learned planning state: exponentially decayed
// observations of stage selectivity and cost, source run costs, and
// verification cost, keyed by (name, τ) and aged by the corpus's mutation
// epoch. It lives alongside the corpus's artifact cache (one Model per
// corpus, shared with its snapshots) and is safe for concurrent use.
//
// Two decays compose. Folding a new observation retains runRetain of the
// old sums, so recent runs dominate a stationary corpus; and every epoch
// step (an Add/Remove batch) multiplies all sums by decayPerEpoch, so a
// mutating corpus's stale observations fade until a calibration probe
// refreshes them. An observation whose weight decays below minWeight is no
// longer trusted.
type Model struct {
	mu      sync.Mutex
	stages  map[key]*obs
	sources map[key]*obs
	verify  obs

	// win memoises exact window-pair counts for the current epoch (the
	// count is a function of the membership, so an epoch step invalidates
	// it).
	win      map[winKey]int64
	winEpoch int64

	// calMu serialises calibration probes; calDone records the last epoch a
	// probe ran per τ so a probe that could not produce usable data (e.g.
	// the sample degenerates to the loop fallback) is not retried every
	// query.
	calMu   sync.Mutex
	calDone map[int]int64
}

// New returns an empty model.
func New() *Model {
	return &Model{
		stages:  make(map[key]*obs),
		sources: make(map[key]*obs),
		calDone: make(map[int]int64),
	}
}

type key struct {
	name string
	tau  int
}

type winKey struct {
	n, split, tau int
}

// Decay and trust constants; see Model.
const (
	decayPerEpoch = 0.80
	runRetain     = 0.70
	minWeight     = 0.20
	// realMin: the decayed completed-run fold count above which an
	// observation counts as run-backed rather than calibration-only.
	realMin = 0.45
	// maxDecaySteps caps the epoch-gap exponent (beyond it everything is
	// zero anyway).
	maxDecaySteps = 64
)

// obs is one decayed observation bucket. Stage folds use in/pruned (offer
// and kill counts) and ns/calls (sampled predicate time); source folds use
// candNs/buildNs (per-run candidate-stage wall and index-build time),
// wp/trees (the runs' window-pair counts and collection sizes, for
// scaling), offers/skipped/scanned (chain offers, count-threshold skips,
// posting entries scanned); the verify bucket uses ns/calls (verification
// time per candidate). Ratios of decayed sums are the estimates.
type obs struct {
	epoch int64
	w     float64
	real  float64

	in, pruned float64
	ns, calls  float64

	candNs, buildNs float64
	wp, trees       float64
	offers, skipped float64
	scanned         float64
}

// age decays the bucket forward to epoch; a bucket is never aged backwards.
func (o *obs) age(epoch int64) {
	if epoch <= o.epoch {
		return
	}
	d := epoch - o.epoch
	if d > maxDecaySteps {
		d = maxDecaySteps
	}
	f := 1.0
	for i := int64(0); i < d; i++ {
		f *= decayPerEpoch
	}
	o.w *= f
	o.real *= f
	o.in *= f
	o.pruned *= f
	o.ns *= f
	o.calls *= f
	o.candNs *= f
	o.buildNs *= f
	o.wp *= f
	o.trees *= f
	o.offers *= f
	o.skipped *= f
	o.scanned *= f
	o.epoch = epoch
}

// fold merges one run's numbers into the bucket with EWMA retention. A run
// observed at an older epoch than the bucket (a query pinned to a stale
// snapshot) folds in down-weighted by the epochs it missed.
func (o *obs) fold(epoch int64, add obs, real bool) {
	g := 1.0
	if epoch < o.epoch {
		d := o.epoch - epoch
		if d > maxDecaySteps {
			d = maxDecaySteps
		}
		for i := int64(0); i < d; i++ {
			g *= decayPerEpoch
		}
	} else {
		o.age(epoch)
	}
	o.w = o.w*runRetain + g
	if real {
		o.real = o.real*runRetain + g
	} else {
		o.real *= runRetain
	}
	o.in = o.in*runRetain + g*add.in
	o.pruned = o.pruned*runRetain + g*add.pruned
	o.ns = o.ns*runRetain + g*add.ns
	o.calls = o.calls*runRetain + g*add.calls
	o.candNs = o.candNs*runRetain + g*add.candNs
	o.buildNs = o.buildNs*runRetain + g*add.buildNs
	o.wp = o.wp*runRetain + g*add.wp
	o.trees = o.trees*runRetain + g*add.trees
	o.offers = o.offers*runRetain + g*add.offers
	o.skipped = o.skipped*runRetain + g*add.skipped
	o.scanned = o.scanned*runRetain + g*add.scanned
}

func usable(o *obs) bool { return o != nil && o.w >= minWeight }

func backedByRuns(o *obs) bool { return o != nil && o.real >= realMin }

// tauAccept reports whether an observation at τ' may stand in for a query
// at τ: the gap must stay within 1 + τ/2 (window widths and kill rates
// drift with the threshold, but nearby thresholds are good proxies).
func tauAccept(tau, got int) bool {
	d := tau - got
	if d < 0 {
		d = -d
	}
	return d <= 1+tau/2
}

// nearestLocked returns the freshest usable bucket for name at or near tau,
// aging candidates to epoch on the way. Exact τ wins; otherwise the closest
// accepted τ (ties toward smaller τ, which has the tighter window).
func nearestLocked(mm map[key]*obs, name string, tau int, epoch int64) (*obs, bool) {
	if o, ok := mm[key{name, tau}]; ok {
		o.age(epoch)
		if usable(o) {
			return o, true
		}
	}
	var best *obs
	bestGap := -1
	for k, o := range mm {
		if k.name != name || k.tau == tau || !tauAccept(tau, k.tau) {
			continue
		}
		o.age(epoch)
		if !usable(o) {
			continue
		}
		gap := tau - k.tau
		if gap < 0 {
			gap = -gap
		}
		if best == nil || gap < bestGap || (gap == bestGap && k.tau < tau) {
			best, bestGap = o, gap
		}
	}
	return best, best != nil
}

// stageAt and sourceAt read the usable observation for a stage or source at
// (or near) tau. Callers hold m.mu.
func (m *Model) stageAt(name string, tau int, epoch int64) (*obs, bool) {
	o, ok := nearestLocked(m.stages, name, tau, epoch)
	if !ok || o.in <= 0 || o.calls <= 0 {
		return nil, false
	}
	return o, true
}

func (m *Model) sourceAt(name string, tau int, epoch int64) (*obs, bool) {
	o, ok := nearestLocked(m.sources, name, tau, epoch)
	if !ok || o.candNs <= 0 {
		return nil, false
	}
	return o, true
}

// at returns the exact-τ bucket, creating it if missing. Callers hold m.mu.
func at(mm map[key]*obs, name string, tau int) *obs {
	k := key{name, tau}
	o := mm[k]
	if o == nil {
		o = &obs{}
		mm[k] = o
	}
	return o
}

// NormalizeSource maps an effective Stats.Source to the model's source key:
// the tokenizer suffix names a variant of one cost regime
// ("token-index(labels)" → "token-index").
func NormalizeSource(s string) string {
	if i := strings.IndexByte(s, '('); i >= 0 {
		s = s[:i]
	}
	return s
}

// Observe folds one completed run's statistics into the model: per-stage
// offer/kill counts and sampled predicate costs (in executed order — the
// attribution the engine now guarantees), the effective source's
// candidate-stage wall cost with its scaling denominators, and the
// verification cost per candidate. ts/split identify the run's collection
// (combined A++B and len(A) for cross joins, split=-1 for self joins);
// epoch is the corpus epoch the run was pinned to.
func (m *Model) Observe(st *sim.Stats, ts []*tree.Tree, split, tau int, epoch int64) {
	m.observe(st, ts, split, tau, epoch, true)
}

func (m *Model) observe(st *sim.Stats, ts []*tree.Tree, split, tau int, epoch int64, real bool) {
	if st == nil || st.Trees == 0 || tau < 0 {
		return
	}
	wp := m.WindowPairs(ts, split, tau, epoch)
	src := NormalizeSource(st.Source)
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, sg := range st.Stages {
		if sg.In == 0 {
			continue
		}
		at(m.stages, sg.Name, tau).fold(epoch, obs{
			in:     float64(sg.In),
			pruned: float64(sg.Pruned),
			ns:     float64(sg.SampledNs),
			calls:  float64(sg.Sampled),
		}, real)
	}
	if src != "" {
		offers := float64(st.Candidates)
		if len(st.Stages) > 0 {
			offers = float64(st.Stages[0].In)
		}
		at(m.sources, src, tau).fold(epoch, obs{
			candNs:  float64(st.CandWall.Nanoseconds()),
			buildNs: float64(st.IndexBuildTime.Nanoseconds()),
			wp:      float64(wp),
			trees:   float64(st.Trees),
			offers:  offers,
			skipped: float64(st.SkippedByCount),
			scanned: float64(st.PostingsScanned),
		}, real)
	}
	if st.Candidates > 0 && st.VerifyTime > 0 {
		m.verify.fold(epoch, obs{
			ns:    float64(st.VerifyTime.Nanoseconds()),
			calls: float64(st.Candidates),
		}, real)
	}
}

// WindowPairs returns the exact number of unordered tree pairs within the τ
// size window — every pair |size(a) − size(b)| ≤ τ, cross pairs only when
// split ≥ 0. This is the sorted loop's exact offer count and the common
// scaling denominator of the model's cost extrapolations; counts are
// memoised per epoch.
func (m *Model) WindowPairs(ts []*tree.Tree, split, tau int, epoch int64) int64 {
	k := winKey{n: len(ts), split: split, tau: tau}
	m.mu.Lock()
	// The memo epoch only ever advances: a query pinned to a stale snapshot
	// (epoch < winEpoch) computes its count directly and never touches the
	// memo. Letting it rewind would both thrash the memo (live and stale
	// queries alternately flushing each other's entries) and poison it —
	// winKey is (n, split, τ), so a stale membership of the same size could
	// leave its count behind for a live query to read.
	if m.win == nil || epoch > m.winEpoch {
		m.win = make(map[winKey]int64)
		m.winEpoch = epoch
	}
	if epoch == m.winEpoch {
		if v, ok := m.win[k]; ok {
			m.mu.Unlock()
			return v
		}
	}
	m.mu.Unlock()
	v := countWindowPairs(ts, split, tau)
	m.mu.Lock()
	if m.winEpoch == epoch {
		m.win[k] = v
	}
	m.mu.Unlock()
	return v
}

func countWindowPairs(ts []*tree.Tree, split, tau int) int64 {
	if split < 0 {
		sizes := make([]int, len(ts))
		for i, t := range ts {
			sizes[i] = t.Size()
		}
		sort.Ints(sizes)
		var n int64
		lo := 0
		for p, sz := range sizes {
			for sizes[lo] < sz-tau {
				lo++
			}
			n += int64(p - lo)
		}
		return n
	}
	sa := make([]int, split)
	for i := 0; i < split; i++ {
		sa[i] = ts[i].Size()
	}
	sb := make([]int, len(ts)-split)
	for i := split; i < len(ts); i++ {
		sb[i-split] = ts[i].Size()
	}
	sort.Ints(sa)
	sort.Ints(sb)
	var n int64
	lo, hi := 0, 0
	for _, sz := range sa {
		for lo < len(sb) && sb[lo] < sz-tau {
			lo++
		}
		if hi < lo {
			hi = lo
		}
		for hi < len(sb) && sb[hi] <= sz+tau {
			hi++
		}
		n += int64(hi - lo)
	}
	return n
}

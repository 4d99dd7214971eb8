package segstore

import (
	"errors"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"treejoin/internal/tree"
)

// The tests of the path production runs: flushes and merges on their own
// goroutines, beside the writers. gateFS makes the interleavings
// deterministic — it holds every segment write open until the test lets it
// through (or fails it) — and the property test at the bottom runs them
// unscripted under the race detector.

// gateFS wraps an FS and, while armed, parks the first Write of every segment
// file: the writer announces the file's name on started and waits for the
// test's verdict.
type gateFS struct {
	FS
	armed   atomic.Bool
	started chan string
	mu      sync.Mutex
	verdict map[string]chan error
}

func newGateFS(inner FS) *gateFS {
	return &gateFS{FS: inner, started: make(chan string), verdict: map[string]chan error{}}
}

func (g *gateFS) Create(path string) (File, error) {
	f, err := g.FS.Create(path)
	name := filepath.Base(path)
	if _, seg := segNameSeq(name); err != nil || !seg || !g.armed.Load() {
		return f, err
	}
	ch := make(chan error, 1)
	g.mu.Lock()
	g.verdict[name] = ch
	g.mu.Unlock()
	return &gateFile{File: f, g: g, name: name, ch: ch}, nil
}

// let ends the hold on the named segment file: nil lets the write through,
// an error fails it.
func (g *gateFS) let(name string, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.verdict[name] <- err
}

type gateFile struct {
	File
	g    *gateFS
	name string
	ch   chan error
}

func (f *gateFile) Write(p []byte) (int, error) {
	f.g.started <- f.name
	if err := <-f.ch; err != nil {
		return 0, err
	}
	return f.File.Write(p)
}

// waitIdle returns once no flush or merge is in flight.
func waitIdle(s *Store) {
	s.mu.Lock()
	s.drainLocked()
	s.mu.Unlock()
}

// settle waits until the store is idle, intercepting every segment write the
// gate holds on the way: held is called while the write is parked — between
// freeze (or snapshot) and install — and then the write is let through.
func settle(s *Store, g *gateFS, held func(name string)) {
	idle := make(chan struct{})
	go func() {
		waitIdle(s)
		close(idle)
	}()
	for {
		select {
		case name := <-g.started:
			held(name)
			g.let(name, nil)
		case <-idle:
			return
		}
	}
}

// gatedStore creates a background store over a gated errFS; sync is on, so an
// errFS crash image holds exactly what was acknowledged.
func gatedStore(t *testing.T, opt Options) (*Store, *gateFS, *errFS) {
	t.Helper()
	mem := newErrFS()
	g := newGateFS(mem)
	opt.FS = g
	s, err := Create(sweepDir, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	return s, g, mem
}

// checkImage reopens a crash image of mem (nothing unsynced survives) and
// holds it to exactly the model.
func checkImage(t *testing.T, what string, mem *errFS, model modelState) {
	t.Helper()
	s, err := Open(sweepDir, Options{NoBackground: true, FS: mem.crashImage(0)})
	if err != nil {
		t.Fatalf("%s: reopen: %v", what, err)
	}
	defer s.Close()
	if live := s.Live(); !matchesSomePrefix(live, []modelState{model}) {
		t.Fatalf("%s: crash image holds %d live trees, not the %d acknowledged", what, len(live), len(model.ids))
	}
}

// addBatch adds n fresh trees as one call and records them in the model.
func addBatch(t *testing.T, s *Store, rng *rand.Rand, model *modelState, n int) {
	t.Helper()
	ts := make([]*tree.Tree, n)
	for i := range ts {
		ts[i] = randTestTree(rng, s.Labels(), 8)
	}
	first := s.NextID()
	if err := s.Add(first, ts...); err != nil {
		t.Fatal(err)
	}
	for i, tr := range ts {
		model.ids = append(model.ids, first+int64(i))
		model.trees = append(model.trees, tr)
	}
}

// removeAt removes the model's k-th live tree.
func removeAt(t *testing.T, s *Store, model *modelState, k int) {
	t.Helper()
	if err := s.Remove(model.ids[k]); err != nil {
		t.Fatal(err)
	}
	model.ids = append(model.ids[:k], model.ids[k+1:]...)
	model.trees = append(model.trees[:k], model.trees[k+1:]...)
}

// TestRemoveDuringFlush: an id of the frozen memtable is removed while its
// segment is being written. The remove neither waits nor is lost: the entry
// starts life dead in the new segment, and a crash at any point in between
// replays to the acknowledged state.
func TestRemoveDuringFlush(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	s, g, mem := gatedStore(t, Options{MemtableBudget: 4})
	g.armed.Store(true)
	var model modelState
	addBatch(t, s, rng, &model, 4) // fills the memtable: frozen, flush parked at its write
	name := <-g.started
	removeAt(t, s, &model, 1)
	addBatch(t, s, rng, &model, 2) // the fresh memtable takes writes meanwhile
	checkLive(t, s, model.ids, model.trees)
	checkImage(t, "flush held", mem, model)
	if st := s.Stats(); st.Segments != 0 || st.MemtableTrees != 2 || st.LiveTrees != 5 {
		t.Fatalf("stats with the flush held: %+v", st)
	}
	g.let(name, nil)
	waitIdle(s)
	if st := s.Stats(); st.Segments != 1 || st.Entries != 4 || st.TombstonedTrees != 1 || st.FlushRuns != 1 || st.Degraded {
		t.Fatalf("stats after the flush installed: %+v", st)
	}
	checkLive(t, s, model.ids, model.trees)
	checkImage(t, "flush installed", mem, model)
	g.armed.Store(false)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	checkImage(t, "closed", mem, model)
}

// TestMutationsDuringMerge: while a merge is being written, a segment entry
// it copied is removed, a flush installs a newer segment, and more trees
// arrive. At install the removed entry gets its dead mark, the newer segment
// stays behind the merged one, and every crash image along the way reopens to
// the acknowledged state.
func TestMutationsDuringMerge(t *testing.T) {
	for _, flushFirst := range []bool{true, false} {
		rng := rand.New(rand.NewSource(22))
		s, g, mem := gatedStore(t, Options{MemtableBudget: 2, CompactMinDead: 2})
		var model modelState
		for i := 0; i < 3; i++ { // three segments of two entries
			addBatch(t, s, rng, &model, 2)
			waitIdle(s)
		}
		removeAt(t, s, &model, 0)
		removeAt(t, s, &model, 0)
		removeAt(t, s, &model, 0)
		g.armed.Store(true)
		removeAt(t, s, &model, 0) // 4 dead > 2 live: the merge starts and parks at its write
		merge := <-g.started
		removeAt(t, s, &model, 0)      // a survivor of the snapshot dies during the build
		addBatch(t, s, rng, &model, 2) // fills the memtable: a flush parks too
		flush := <-g.started
		addBatch(t, s, rng, &model, 1)
		checkLive(t, s, model.ids, model.trees)
		checkImage(t, "merge and flush held", mem, model)

		// One installs — and commits, WAL rewrite included — while the other
		// is still building.
		first, second := merge, flush
		installed := func(st Stats) bool { return st.CompactionRuns == 1 }
		if flushFirst {
			first, second = flush, merge
			installed = func(st Stats) bool { return st.FlushRuns == 4 }
		}
		g.let(first, nil)
		for !installed(s.Stats()) {
			time.Sleep(time.Millisecond)
		}
		if st := s.Stats(); (flushFirst && st.Segments != 4) || (!flushFirst && st.Segments != 1) || st.Degraded {
			t.Fatalf("flush first %v: stats after the first install: %+v", flushFirst, st)
		}
		checkLive(t, s, model.ids, model.trees)
		checkImage(t, "one installed, one held", mem, model)

		g.let(second, nil)
		waitIdle(s)
		st := s.Stats()
		if st.Segments != 2 || st.CompactionRuns != 1 || st.FlushRuns != 4 || st.Entries != 4 || st.TombstonedTrees != 1 || st.Degraded {
			t.Fatalf("flush first %v: stats after both installed: %+v", flushFirst, st)
		}
		checkLive(t, s, model.ids, model.trees)
		checkImage(t, "both installed", mem, model)
		g.armed.Store(false)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		checkImage(t, "closed", mem, model)
	}
}

// TestCloseDuringFlushAndMerge: Close waits for both, then finishes the job.
func TestCloseDuringFlushAndMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	s, g, mem := gatedStore(t, Options{MemtableBudget: 2, CompactMinDead: 2})
	var model modelState
	for i := 0; i < 2; i++ {
		addBatch(t, s, rng, &model, 2)
		waitIdle(s)
	}
	removeAt(t, s, &model, 0)
	removeAt(t, s, &model, 0)
	g.armed.Store(true)
	removeAt(t, s, &model, 0) // 3 dead > 1 live
	merge := <-g.started
	addBatch(t, s, rng, &model, 2)
	flush := <-g.started
	addBatch(t, s, rng, &model, 1)

	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) with a flush and a merge in flight", err)
	case <-time.After(20 * time.Millisecond):
	}
	g.let(merge, nil)
	g.let(flush, nil)
	// Close's own flush of the last memtable passes the gate as well.
	for done := false; !done; {
		select {
		case name := <-g.started:
			g.let(name, nil)
		case err := <-closed:
			if err != nil {
				t.Fatal(err)
			}
			done = true
		}
	}
	checkImage(t, "closed", mem, model)
	re, err := Open(sweepDir, Options{NoBackground: true, FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if st := re.Stats(); st.MemtableTrees != 0 {
		t.Fatalf("Close left %d trees in the WAL", st.MemtableTrees)
	}
	checkLive(t, re, model.ids, model.trees)
}

// TestBackgroundFlushFailure: the background segment write hits a full disk.
// The store degrades exactly as after a failed inline flush — mutations
// rejected, every acknowledged tree readable and safe in the WAL — and the
// retry loop clears it once space frees.
func TestBackgroundFlushFailure(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	s, g, mem := gatedStore(t, Options{MemtableBudget: 4, retryBase: time.Millisecond, retryMax: 4 * time.Millisecond})
	defer s.Close()
	g.armed.Store(true)
	var model modelState
	addBatch(t, s, rng, &model, 4)
	name := <-g.started
	removeAt(t, s, &model, 2) // must survive the thaw as a removal
	addBatch(t, s, rng, &model, 1)
	g.armed.Store(false) // the retries are not held
	mem.setSticky(true)
	g.let(name, nil)
	waitIdle(s)
	if st := s.Stats(); !st.Degraded || st.Segments != 0 || st.MemtableTrees != 4 {
		t.Fatalf("stats after the failed flush: %+v", st)
	}
	if err := s.Add(s.NextID(), chainTree(s.Labels(), 3)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Add while degraded: %v, want ErrDegraded", err)
	}
	checkLive(t, s, model.ids, model.trees)
	checkImage(t, "degraded", mem, model)
	mem.setSticky(false)
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Degraded {
		if time.Now().After(deadline) {
			t.Fatal("background retry never recovered the store")
		}
		time.Sleep(time.Millisecond)
	}
	addBatch(t, s, rng, &model, 1)
	waitIdle(s)
	if st := s.Stats(); st.FlushRuns == 0 || st.Segments == 0 {
		t.Fatalf("recovery did not flush the thawed memtable: %+v", st)
	}
	checkLive(t, s, model.ids, model.trees)
	checkImage(t, "recovered", mem, model)
}

// TestBackgroundProperty is the unscripted version: two goroutines issue
// random Add and Remove batches against a store with small budgets, a third
// reads Stats and Live throughout, and at a random point the store is
// abandoned — no Close, flushes and merges possibly mid-flight — and a crash
// image reopened. It must hold exactly the acknowledged history. Run under
// -race -count=10.
func TestBackgroundProperty(t *testing.T) {
	var flushes, merges int64
	defer func() {
		if !t.Failed() && (flushes == 0 || merges == 0) {
			t.Errorf("histories drove %d flushes and %d merges: the property was not exercised", flushes, merges)
		}
	}()
	for trial := 0; trial < 4; trial++ {
		seed := int64(300 + trial)
		rng := rand.New(rand.NewSource(seed))
		mem := newErrFS()
		s, err := Create(sweepDir, nil, Options{
			MemtableBudget: 3 + rng.Intn(6), CompactMinDead: 2 + rng.Intn(3), FS: mem,
		})
		if err != nil {
			t.Fatal(err)
		}
		var addMu sync.Mutex // NextID and Add as one step
		acked := make([]modelState, 2)
		stop := make(chan struct{})
		var readers, writers sync.WaitGroup
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := s.Stats()
				prev := int64(-1)
				for _, lv := range s.Live() {
					if lv.ID <= prev {
						t.Errorf("trial %d: live ids not ascending at %d", trial, lv.ID)
						return
					}
					prev = lv.ID
				}
				if st.Degraded {
					t.Errorf("trial %d: degraded: %s", trial, st.DegradedReason)
					return
				}
			}
		}()
		for w := range acked {
			writers.Add(1)
			go func(w int, rng *rand.Rand) {
				defer writers.Done()
				mine := &acked[w]
				for op, n := 0, 15+rng.Intn(40); op < n; op++ {
					if len(mine.ids) > 0 && rng.Intn(5) < 2 {
						k := 1 + rng.Intn(min(4, len(mine.ids)))
						at := rng.Intn(len(mine.ids) - k + 1)
						if err := s.Remove(mine.ids[at : at+k]...); err != nil {
							t.Errorf("trial %d: Remove: %v", trial, err)
							return
						}
						mine.ids = append(mine.ids[:at], mine.ids[at+k:]...)
						mine.trees = append(mine.trees[:at], mine.trees[at+k:]...)
						continue
					}
					ts := make([]*tree.Tree, 1+rng.Intn(4))
					for i := range ts {
						ts[i] = randTestTree(rng, s.Labels(), 8)
					}
					addMu.Lock()
					first := s.NextID()
					err := s.Add(first, ts...)
					addMu.Unlock()
					if err != nil {
						t.Errorf("trial %d: Add: %v", trial, err)
						return
					}
					for i, tr := range ts {
						mine.ids = append(mine.ids, first+int64(i))
						mine.trees = append(mine.trees, tr)
					}
				}
			}(w, rand.New(rand.NewSource(seed*10+int64(w))))
		}
		writers.Wait()
		// Abandoned here: whatever the background goroutines are in the middle
		// of, the image is what a power cut would leave.
		img := mem.crashImage(float64(trial % 2))
		st := s.Stats()
		flushes, merges = flushes+st.FlushRuns, merges+st.CompactionRuns
		close(stop)
		readers.Wait()
		_ = s.Close() // only to stop the goroutines; the image is already taken

		var want modelState
		for i, j := 0, 0; i < len(acked[0].ids) || j < len(acked[1].ids); {
			a, b := &acked[0], &acked[1]
			if j == len(b.ids) || (i < len(a.ids) && a.ids[i] < b.ids[j]) {
				want.ids, want.trees = append(want.ids, a.ids[i]), append(want.trees, a.trees[i])
				i++
			} else {
				want.ids, want.trees = append(want.ids, b.ids[j]), append(want.trees, b.trees[j])
				j++
			}
		}
		re, err := Open(sweepDir, Options{NoBackground: true, FS: img})
		if err != nil {
			t.Fatalf("trial %d: reopen: %v", trial, err)
		}
		checkLive(t, re, want.ids, want.trees)
		if err := re.Close(); err != nil {
			t.Fatalf("trial %d: close: %v", trial, err)
		}
	}
}

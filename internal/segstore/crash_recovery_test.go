package segstore

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"treejoin/internal/tree"
)

// The crash-recovery property: interrupt a random mutation history at any
// point — including a torn WAL tail — and a reopened store equals the fresh
// in-memory model after some prefix of the operations. Nothing is ever lost
// past a committed boundary, nothing doubles, nothing is resurrected.

// modelState is the oracle's live set after a prefix of operations.
type modelState struct {
	ids   []int64
	trees []*tree.Tree
}

func (m modelState) clone() modelState {
	return modelState{
		ids:   append([]int64(nil), m.ids...),
		trees: append([]*tree.Tree(nil), m.trees...),
	}
}

func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	des, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		data, err := os.ReadFile(filepath.Join(src, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, de.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// matchesSomePrefix reports whether the reopened live set equals one of the
// recorded prefix states.
func matchesSomePrefix(live []LiveTree, states []modelState) bool {
outer:
	for _, st := range states {
		if len(st.ids) != len(live) {
			continue
		}
		for i, lv := range live {
			if lv.ID != st.ids[i] || !tree.Equal(lv.Tree, st.trees[i]) {
				continue outer
			}
		}
		return true
	}
	return false
}

func TestCrashRecoveryProperty(t *testing.T) {
	for trial := 0; trial < 12; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial/2)))
		dir := t.TempDir()
		// Odd trials replay the even trial's history with flushes and merges
		// in the background, every segment write held at the gate: the
		// directory is copied there — between freeze (or snapshot) and install
		// — and must reopen to exactly the operations so far.
		background := trial%2 == 1
		gate := newGateFS(osFS{})
		gate.armed.Store(background)
		s, err := Create(dir, nil, Options{
			MemtableBudget: 3, CompactMinDead: 2, NoBackground: !background, NoSync: true, FS: gate,
		})
		if err != nil {
			t.Fatal(err)
		}
		model := modelState{}
		held := func(name string) {
			s2, err := Open(copyDir(t, dir), testOpts())
			if err != nil {
				t.Fatalf("trial %d, %s held: reopen: %v", trial, name, err)
			}
			if live := s2.Live(); !matchesSomePrefix(live, []modelState{model}) {
				t.Fatalf("trial %d, %s held: reopened state (%d live) is not the %d operations so far",
					trial, name, len(live), len(model.ids))
			}
			s2.Close()
		}
		states := []modelState{model.clone()} // the empty prefix
		for op := 0; op < 40; op++ {
			if len(model.ids) > 0 && rng.Intn(3) == 0 {
				k := rng.Intn(len(model.ids))
				if err := s.Remove(model.ids[k]); err != nil {
					t.Fatalf("trial %d op %d: %v", trial, op, err)
				}
				model.ids = append(model.ids[:k], model.ids[k+1:]...)
				model.trees = append(model.trees[:k], model.trees[k+1:]...)
			} else {
				tr := randTestTree(rng, s.Labels(), 10)
				id := s.NextID()
				if err := s.Add(id, tr); err != nil {
					t.Fatalf("trial %d op %d: %v", trial, op, err)
				}
				model.ids = append(model.ids, id)
				model.trees = append(model.trees, tr)
			}
			states = append(states, model.clone())
			settle(s, gate, held)
		}
		// Abandon without Close — the store dies here. Crash images: the
		// directory as-is, and with the WAL torn at arbitrary byte offsets.
		walPath := filepath.Join(dir, walName)
		walData, err := os.ReadFile(walPath)
		if err != nil {
			t.Fatal(err)
		}
		cuts := []int{len(walData)} // uncut first
		for i := 0; i < 8; i++ {
			cuts = append(cuts, rng.Intn(len(walData)+1))
		}
		for _, cut := range cuts {
			crashDir := copyDir(t, dir)
			if err := os.Truncate(filepath.Join(crashDir, walName), int64(cut)); err != nil {
				t.Fatal(err)
			}
			s2, err := Open(crashDir, testOpts())
			if err != nil {
				t.Fatalf("trial %d cut %d/%d: reopen: %v", trial, cut, len(walData), err)
			}
			live := s2.Live()
			if !matchesSomePrefix(live, states) {
				t.Fatalf("trial %d cut %d/%d: reopened state (%d live) matches no prefix",
					trial, cut, len(walData), len(live))
			}
			if cut == len(walData) && len(live) != len(model.ids) {
				t.Fatalf("trial %d: untorn reopen lost operations: %d live, want %d",
					trial, len(live), len(model.ids))
			}
			s2.Close()
		}
		if background {
			gate.armed.Store(false)
			s.Close() // after the crash images: only to stop its goroutines
		}
	}
}

// TestPowerCutMultiFileCommit cuts power at every filesystem operation of one
// memtable flush — a commit spanning three files (segment write, manifest
// tmp+rename, WAL rewrite tmp+rename) plus the directory fsyncs between them.
// Unlike the WAL-tail cuts above, these crash images can hold any interleaving
// of the commit's files: segment without manifest, new manifest with stale
// WAL, torn halves of each. Every image must reopen to either the pre-flush
// or the post-flush state; once the triggering Add was acknowledged, sync-on
// durability demands exactly the post state.
func TestPowerCutMultiFileCommit(t *testing.T) {
	// Inline, and with the flush on its own goroutine: there the Add returns
	// at the freeze and every cut lands between freeze and install.
	for _, background := range []bool{false, true} {
		sweepFlushCuts(t, background)
	}
}

func sweepFlushCuts(t *testing.T, background bool) {
	rng := rand.New(rand.NewSource(77))
	for cut := 0; ; cut++ {
		fs := newErrFS()
		s, err := Create("store", nil, Options{MemtableBudget: 3, NoBackground: !background, FS: fs, retryBase: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		// Two acknowledged trees below budget; the third add flushes.
		setup := rand.New(rand.NewSource(77))
		model := modelState{}
		for i := 0; i < 2; i++ {
			tr := randTestTree(setup, s.Labels(), 8)
			id := s.NextID()
			if err := s.Add(id, tr); err != nil {
				t.Fatal(err)
			}
			model.ids = append(model.ids, id)
			model.trees = append(model.trees, tr)
		}
		pre := model.clone()
		fs.arm(fPowerCut, cut)
		tr := randTestTree(rng, s.Labels(), 8)
		id := s.NextID()
		err = s.Add(id, tr)
		waitIdle(s)
		post := model.clone()
		post.ids = append(post.ids, id)
		post.trees = append(post.trees, tr)
		allowed := []modelState{pre, post}
		if err == nil && fs.cutHit() {
			// Acknowledged before the cut landed in the flush: the add is
			// durable, only the post state is acceptable.
			allowed = []modelState{post}
		}
		for _, frac := range []float64{0, 0.5, 1} {
			img := fs.crashImage(frac)
			s2, err := Open("store", Options{MemtableBudget: 3, NoBackground: true, FS: img})
			if err != nil {
				t.Fatalf("cut@%d frac %v: reopen: %v", cut, frac, err)
			}
			if !matchesSomePrefix(s2.Live(), allowed) {
				t.Fatalf("cut@%d frac %v: crash image (%d live) is neither pre- nor post-flush",
					cut, frac, len(s2.Live()))
			}
			if err := s2.Close(); err != nil {
				t.Fatalf("cut@%d frac %v: close: %v", cut, frac, err)
			}
		}
		done := !fs.cutHit()
		if background {
			_ = s.Close() // stops the retry loop; after a cut it can only fail
		}
		if done {
			// The cut index ran past the whole commit: every operation of the
			// multi-file window has been swept.
			if cut < 10 {
				t.Fatalf("flush commit spanned only %d operations", cut)
			}
			break
		}
	}
}

// TestStaleWALWindow pins the commit protocol's crash window directly: the
// manifest renamed, the WAL not yet rewritten. Replay must skip every record
// the manifest already reflects and lose nothing.
func TestStaleWALWindow(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(55))
	s, err := Create(dir, nil, Options{MemtableBudget: 100, NoBackground: true, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	var ids []int64
	var trees []*tree.Tree
	for i := 0; i < 5; i++ {
		tr := randTestTree(rng, s.Labels(), 8)
		id := s.NextID()
		if err := s.Add(id, tr); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		trees = append(trees, tr)
	}
	if err := s.Remove(ids[1]); err != nil {
		t.Fatal(err)
	}
	ids = append(ids[:1], ids[2:]...)
	trees = append(trees[:1], trees[2:]...)

	walPath := filepath.Join(dir, walName)
	stale, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil { // manifest now ahead of the stale WAL
		t.Fatal(err)
	}
	// Crash in the window: restore the pre-flush WAL over the rewritten one.
	if err := os.WriteFile(walPath, stale, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	checkLive(t, s2, ids, trees)
	if st := s2.Stats(); st.MemtableTrees != 0 {
		t.Fatalf("stale 'A' records doubled into the memtable: %+v", st)
	}
}

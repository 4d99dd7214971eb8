// The dynamic-corpus race hammer: concurrent Add/Remove writers against
// Search/SelfJoinSeq/SelfJoin readers on one shared corpus. Run under
// -race (CI does), on a one-part and on a three-part corpus, it exercises the
// copy-on-write state swap, parts and their indexes (PartSJ and token alike)
// being replaced and carried over, and the shared artifact cache under
// eviction. Readers assert snapshot isolation
// through pinned Snapshot views: every pair a view's join reports indexes
// that view's membership and is within threshold for that view's trees — a
// result can never reference a tree removed by a concurrent writer, because
// the view's epoch predates the removal and its state is immutable.
package treejoin_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"treejoin"
	"treejoin/internal/synth"
)

func TestDynamicCorpusRace(t *testing.T) {
	for _, parts := range []int{1, 3} {
		dynamicCorpusRace(t, parts)
	}
}

func dynamicCorpusRace(t *testing.T, parts int) {
	ctx := context.Background()
	pool := synth.Generate(synth.SyntheticParams(140, 3, 5, 20, 30, 61))
	cp := mustSharded(t, parts, pool[:60])

	var wg sync.WaitGroup
	errs := make(chan string, 16)
	report := func(format string, args ...any) {
		select {
		case errs <- fmt.Sprintf(format, args...):
		default:
		}
	}

	// Writer: random Add/Remove churn. Ids grow monotonically, so removing
	// a random id below the high-water mark hits live and dead ids alike.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		next := 60
		maxID := 60
		for i := 0; i < 150; i++ {
			if rng.Intn(2) == 0 {
				if _, err := cp.Add(pool[next%len(pool)]); err != nil {
					report("Add: %v", err)
					return
				}
				next++
				maxID++
			} else if cp.Len() > 45 {
				cp.Remove(rng.Intn(maxID))
			}
		}
	}()

	// Joining reader: pin a view, join it, and hold every pair to the
	// view's membership and threshold.
	for _, m := range []treejoin.Method{treejoin.MethodPartSJ, treejoin.MethodSTR} {
		wg.Add(1)
		go func(m treejoin.Method) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				v := cp.Snapshot()
				n := v.Len()
				pairs, _, err := v.SelfJoin(ctx, 2, treejoin.WithMethod(m))
				if err != nil {
					report("%v SelfJoin: %v", m, err)
					return
				}
				for _, p := range pairs {
					if p.I < 0 || p.J >= n || p.I >= p.J {
						report("%v: pair %+v outside snapshot of %d trees", m, p, n)
						return
					}
					if d := treejoin.Distance(v.Tree(p.I), v.Tree(p.J)); d != p.Dist || d > 2 {
						report("%v: pair %+v has distance %d in its own snapshot", m, p, d)
						return
					}
				}
			}
		}(m)
	}

	// Token-index readers on the live corpus: STR and EUL tokenise alike, so
	// the two race each other for one index per epoch while the writer rotates
	// the epochs under them. Each join is pinned to the state it loaded; its
	// pairs must index that state (Stats.Trees) within the threshold.
	for _, m := range []treejoin.Method{treejoin.MethodSTR, treejoin.MethodEulerString} {
		wg.Add(1)
		go func(m treejoin.Method) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				pairs, st, err := cp.SelfJoin(ctx, 2, treejoin.WithMethod(m), treejoin.WithFixedPlan(), treejoin.WithWorkers(2))
				if err != nil {
					report("live %v SelfJoin: %v", m, err)
					return
				}
				for _, p := range pairs {
					if p.I < 0 || p.I >= p.J || p.J >= st.Trees || p.Dist > 2 {
						report("live %v: pair %+v outside its state of %d trees", m, p, st.Trees)
						return
					}
				}
			}
		}(m)
	}

	// Streaming reader on the corpus itself: the sequence pins its state at
	// creation; iterating while the writer churns must stay consistent.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 15; i++ {
			v := cp.Snapshot()
			n := v.Len()
			seq, err := v.SelfJoinSeq(ctx, 1)
			if err != nil {
				report("SelfJoinSeq: %v", err)
				return
			}
			for p := range seq {
				if p.I < 0 || p.J >= n {
					report("seq pair %+v outside snapshot of %d trees", p, n)
					return
				}
			}
		}
	}()

	// Searching reader: index-backed queries against pinned views; a match
	// must be a live member of the view within the threshold.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(2))
		for i := 0; i < 40; i++ {
			q := pool[rng.Intn(len(pool))]
			v := cp.Snapshot()
			ms, err := v.Search(ctx, q, 1)
			if err != nil {
				report("Search: %v", err)
				return
			}
			for _, m := range ms {
				if m.Pos < 0 || m.Pos >= v.Len() {
					report("search match %+v outside snapshot of %d trees", m, v.Len())
					return
				}
				if d := treejoin.Distance(v.Tree(m.Pos), q); d != m.Dist || d > 1 {
					report("search match %+v has distance %d in its own snapshot", m, d)
					return
				}
			}
		}
	}()

	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
}

package segstore

import (
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// Degraded mode. A failed flush, manifest commit, WAL rewrite, or compaction
// cannot corrupt committed state — every one of those paths writes new files
// and publishes them atomically — but it does leave the in-memory state ahead
// of the durable one. Rather than guess, the store fails to the safe side:
// it flips read-only, answers every mutation with ErrDegraded, and keeps the
// already-committed corpus fully readable. Recovery is one commit retry
// (flush if the memtable is over budget, otherwise manifest+WAL commit);
// when it succeeds — say the disk that returned ENOSPC gained space — the
// store silently resumes. With background goroutines enabled the retry runs
// on its own loop under capped exponential backoff with jitter; under
// NoBackground, Flush and Compact double as the synchronous recovery hooks.

// ErrDegraded is wrapped by every mutation rejected because the store is in
// degraded mode; errors.Is(err, ErrDegraded) detects it. Reads (Live, Stats,
// Scrub) keep working throughout.
var ErrDegraded = errors.New("segstore: store is degraded (read-only pending recovery)")

// enterDegradedLocked records the failure and flips the store read-only,
// waking the background retry loop if there is one. Re-entering while
// already degraded keeps the original cause (the first failure is the one
// that explains the state).
func (s *Store) enterDegradedLocked(cause error) {
	if !s.degraded {
		s.degraded = true
		s.degradedErr = cause
	}
	if !s.opt.NoBackground {
		select {
		case s.recoverCh <- struct{}{}:
		default:
		}
	}
}

// degradedErrLocked is the error mutations return while degraded.
func (s *Store) degradedErrLocked() error {
	return fmt.Errorf("%w: %v", ErrDegraded, s.degradedErr)
}

// recoverLocked retries the commit the failure interrupted. The in-memory
// state is a correct superset of the committed one (mutations were WAL-acked
// or rolled back before degrading), so recovery is exactly one of the normal
// commit paths run again: a flush when the memtable is at budget, otherwise
// a manifest+WAL commit that persists whatever tombstones and memtable the
// store holds. Success clears degraded mode.
func (s *Store) recoverLocked() error {
	s.recoveries++
	var err error
	if len(s.mem) >= s.opt.MemtableBudget {
		err = s.flushLocked()
	} else {
		err = s.commitLocked()
	}
	if err != nil {
		if !s.degraded { // a nested failure may have re-entered already
			s.degraded = true
			s.degradedErr = err
		}
		return err
	}
	s.degraded = false
	s.degradedErr = nil
	return nil
}

// defaultRetryJitter draws the random half of a retry delay from the
// process-wide locked RNG. The top-level rand functions serialise internally,
// so any number of stores' recovery loops may draw concurrently; a
// goroutine-local rand.New(rand.NewSource(...)) would work too (each loop is
// one goroutine and the value never escapes it) but is pinned behind the
// Options hook instead so fault-sweep tests can make the schedule
// deterministic.
func defaultRetryJitter(max time.Duration) time.Duration {
	return time.Duration(rand.Int63n(int64(max) + 1))
}

// recoveryLoop is the background half of degraded mode: woken by
// enterDegradedLocked, it retries recoverLocked under exponential backoff
// (retryBase doubling up to retryMax) with ±half jitter, so a fleet of
// stores degraded by the same full disk does not thunder back in lockstep.
// It never starts under NoBackground (Flush and Compact are the synchronous
// recovery hooks there), so NoBackground tests see no jitter at all.
func (s *Store) recoveryLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stopCh:
			return
		case <-s.recoverCh:
		}
		backoff := s.opt.retryBase
		for {
			s.mu.Lock()
			s.drainLocked()
			if s.closed || !s.degraded {
				s.mu.Unlock()
				break
			}
			err := s.recoverLocked()
			s.mu.Unlock()
			if err == nil {
				break
			}
			d := backoff/2 + s.opt.retryJitter(backoff/2)
			select {
			case <-s.stopCh:
				return
			case <-time.After(d):
			}
			if backoff < s.opt.retryMax {
				backoff *= 2
				if backoff > s.opt.retryMax {
					backoff = s.opt.retryMax
				}
			}
		}
	}
}

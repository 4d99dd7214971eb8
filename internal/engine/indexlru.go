package engine

import (
	"context"
	"sync"
)

// IndexLRU is a small least-recently-used cache of frozen indexes over one
// collection — the per-threshold PartSJ indexes behind Search and KNN, the
// token indexes of the signature methods — that builds each entry once
// however many callers ask for it at the same moment. Capacities are tiny, so
// recency is tracked with a plain slice: the O(cap) bookkeeping is noise next
// to an index build.
type IndexLRU[K comparable, V any] struct {
	mu        sync.Mutex
	cap       int
	order     []K // most recently used first
	m         map[K]*lruEntry[V]
	builds    int64
	evictions int64
}

// lruEntry is one key's slot: whoever created it builds the value and closes
// done; everyone else waits on done.
type lruEntry[V any] struct {
	done chan struct{}
	v    V
}

// NewIndexLRU returns an empty cache holding at most capacity entries (values
// below 1 are raised to 1).
func NewIndexLRU[K comparable, V any](capacity int) *IndexLRU[K, V] {
	return &IndexLRU[K, V]{cap: max(capacity, 1), m: make(map[K]*lruEntry[V])}
}

// Get returns key's value, refreshing its recency. On a miss it evicts the
// least recently used entry of a full cache and runs build; built reports
// that this call paid for it. Callers that arrive while the build is under
// way wait for it, or for their own context, whichever ends first.
func (l *IndexLRU[K, V]) Get(ctx context.Context, key K, build func() V) (v V, built bool, err error) {
	l.mu.Lock()
	e := l.m[key]
	if e != nil {
		for i, k := range l.order {
			if k == key {
				copy(l.order[1:i+1], l.order[:i])
				l.order[0] = key
				break
			}
		}
	} else {
		if len(l.order) >= l.cap {
			last := l.order[len(l.order)-1]
			l.order = l.order[:len(l.order)-1]
			delete(l.m, last)
			l.evictions++
		}
		e = &lruEntry[V]{done: make(chan struct{})}
		l.m[key] = e
		l.order = append([]K{key}, l.order...)
		l.builds++
		built = true
	}
	l.mu.Unlock()
	if built {
		defer close(e.done)
		e.v = build()
		return e.v, true, nil
	}
	select {
	case <-e.done:
		return e.v, false, nil
	case <-ctx.Done():
		return v, false, ctx.Err()
	}
}

// Has reports whether key has an entry (possibly still building), without
// refreshing its recency.
func (l *IndexLRU[K, V]) Has(key K) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.m[key] != nil
}

// Counts returns the number of entries currently retained (≤ the capacity),
// how many were ever built, and how many the bound has discarded.
func (l *IndexLRU[K, V]) Counts() (entries int, builds, evictions int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.m), l.builds, l.evictions
}

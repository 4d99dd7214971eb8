package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// request (one cold rep, one HTTP request and its in-process twin) share Req.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"` // -1 for a root
	Req    int                `json:"req"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"` // since the recorder was made
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder is the
// untraced run: begin and end do nothing, so call sites need no branches.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id (-1 when untraced).
func (r *recorder) begin(name string, parent, req int) int {
	if r == nil {
		return -1
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now, End: now})
	return id
}

// end closes span id and attaches attrs (the Stats fields the call returned).
func (r *recorder) end(id int, attrs map[string]float64) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = now
	r.spans[id].Attrs = attrs
}

// all returns the spans recorded so far (nil when untraced).
func (r *recorder) all() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// spanCost measures what recording one span costs, attributes included.
func spanCost() time.Duration {
	const n = 10000
	r := newRecorder()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		r.end(r.begin("calibrate", -1, i), map[string]float64{"i": float64(i)})
	}
	return time.Since(t0) / n
}

// covered returns how much of [s.Start, s.End] the children of s cover,
// counting overlapping children once.
func covered(s span, spans []span) int64 {
	type iv struct{ a, b int64 }
	var kids []iv
	for _, c := range spans {
		if c.Parent != s.ID || c.ID == s.ID {
			continue
		}
		a, b := max(c.Start, s.Start), min(c.End, s.End)
		if b > a {
			kids = append(kids, iv{a, b})
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].a < kids[j].a })
	var sum, hi int64
	hi = s.Start
	for _, k := range kids {
		if k.a > hi {
			hi = k.a
		}
		if k.b > hi {
			sum += k.b - hi
			hi = k.b
		}
	}
	return sum
}

// selfTimes returns, per span id, the span's duration minus the part of it
// its child spans cover.
func selfTimes(spans []span) map[int]int64 {
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.End - s.Start - covered(s, spans)
	}
	return out
}

// closureGap returns the share of the named root spans' time that no child
// span accounts for: 1 − Σ children ÷ Σ roots. It is the check that the
// per-layer times add up to the end-to-end one.
func closureGap(spans []span, root string) float64 {
	var total, kids int64
	for _, s := range spans {
		if s.Name == root && s.Parent == -1 {
			total += s.End - s.Start
			kids += covered(s, spans)
		}
	}
	if total == 0 {
		return 0
	}
	return 1 - float64(kids)/float64(total)
}

// selfByName sums self time per span name, in seconds, for the trace file.
func selfByName(spans []span) map[string]float64 {
	out := map[string]float64{}
	for id, ns := range selfTimes(spans) {
		out[spans[id].Name] += float64(ns) / 1e9
	}
	return out
}

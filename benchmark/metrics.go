package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
)

// def names one metric and its unit. The two tables below are the rig's
// whole vocabulary: a run prints exactly these names, BENCHMARK.json lists
// exactly these names (names_test.go holds the two together), and README.md
// defines each per workload.
type def struct{ name, unit string }

// endToEnd is what a user of the system waits for or pays. Every workload
// reports every one of them; the README table says what each means there.
var endToEnd = []def{
	{"setup_s", "s"},
	{"join_cold_s", "s"},
	{"join_warm_s", "s"},
	{"ingest_trees_per_s", "trees/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer is what one layer did, measured from outside it. A workload that
// does not cross a layer reports 0 for that layer's metrics.
var perLayer = []def{
	{"failed_share", "share"},

	{"tree.parse_ns_per_node", "ns"},

	{"ted.view_build_ns_per_node", "ns"},
	{"ted.verify_ns_per_pair", "ns"},
	{"ted.verify_reported_s", "s"},
	{"ted.dp_avoided_share", "share"},
	{"ted.band_aborts_per_cand", "ratio"},

	{"engine.candgen_reported_s", "s"},
	{"engine.artifact_build_s", "s"},
	{"engine.cache_hit_share", "share"},
	{"engine.candidates", "count"},
	{"engine.candidate_precision", "share"},
	{"engine.alloc_mb_per_join", "MB"},
	{"engine.speedup_w2", "ratio"},

	{"core.partition_reported_s", "s"},
	{"core.match_hit_share", "share"},
	{"core.search_us", "us"},
	{"core.search_p99_us", "us"},
	{"core.knn_ms", "ms"},
	{"core.topk_ms", "ms"},
	{"core.index_build_ms", "ms"},

	{"plan.explain_cold_ms", "ms"},
	{"plan.explain_warm_us", "us"},
	{"plan.flips", "count"},

	{"sharded.selfjoin_ratio", "ratio"},
	{"sharded.search_us", "us"},
	{"sharded.publish_us", "us"},

	{"treejoind.search_overhead_us", "us"},
	{"treejoind.selfjoin_stream_ms", "ms"},
	{"treejoind.status_429", "count"},
	{"treejoind.status_504", "count"},
	{"treejoind.status_5xx", "count"},

	{"serve.search_p50_ms", "ms"},
	{"serve.search_p99_ms", "ms"},
	{"serve.search_within_limit", "share"},
	{"serve.search_interfered_share", "share"},
	{"serve.search_p99_quiet_ms", "ms"},
	{"serve.knn_p50_ms", "ms"},
	{"serve.knn_p90_ms", "ms"},
	{"serve.mutate_p90_ms", "ms"},
	{"serve.selfjoin_p50_ms", "ms"},

	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.achieved_rps", "1/s"},

	{"segstore.synced_trees_per_s", "trees/s"},
	{"segstore.add_p50_ms", "ms"},
	{"segstore.add_p99_ms", "ms"},
	{"segstore.flush_runs", "count"},
	{"segstore.compaction_runs", "count"},
	{"segstore.compact_s", "s"},
	{"segstore.scrub_mb_per_s", "MB/s"},
	{"segstore.stored_bytes_per_tree", "B"},
	{"segstore.space_amp", "ratio"},
	{"segstore.open_ms", "ms"},
	{"segstore.first_join_ms", "ms"},
	{"segstore.rebuild_ratio", "ratio"},

	{"trace.overhead_share", "share"},
	{"trace.closure_gap_share", "share"},

	{"paper.candidates_prt", "count"},
	{"paper.candidates_set", "count"},
	{"paper.candidates_str", "count"},
	{"paper.join_ms_prt", "ms"},
	{"paper.join_ms_set", "ms"},
	{"paper.join_ms_str", "ms"},
}

func registered(name string) bool {
	for _, table := range [][]def{endToEnd, perLayer} {
		for _, d := range table {
			if d.name == name {
				return true
			}
		}
	}
	return false
}

// reading is one measured value with the number of samples behind it
// (0 for a single reading such as a counter or a wall time).
type reading struct {
	V float64
	N int
}

// readings collects a run's measurements by metric name.
type readings map[string]reading

func (r readings) set(name string, v float64, n int) { r[name] = reading{V: v, N: n} }

// wireMetric is one metric in the result line's "metrics" object.
type wireMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line of output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]wireMetric `json:"metrics"`
}

// report prints every metric of defs by name with its unit and sample count,
// and returns the same values keyed for the result line. A name the run did
// not measure prints as 0: on the per-layer table that marks a layer the
// workload does not cross.
func report(w io.Writer, defs []def, r readings) map[string]wireMetric {
	out := make(map[string]wireMetric, len(defs))
	for _, d := range defs {
		m := r[d.name]
		if m.N > 0 {
			fmt.Fprintf(w, "%-34s %14.6g %-8s n=%d\n", d.name, m.V, d.unit, m.N)
		} else {
			fmt.Fprintf(w, "%-34s %14.6g %s\n", d.name, m.V, d.unit)
		}
		out[d.name] = wireMetric{Value: m.V, Unit: d.unit}
	}
	return out
}

// median returns the middle of xs (the mean of the two middle values for an
// even count). xs must not be empty.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

var errThinTail = errors.New("fewer than 10 samples beyond the percentile")

// percentile returns the p-th percentile (0 < p < 1) of xs by nearest rank.
// A tail percentile is refused unless at least ten samples lie beyond it:
// with fewer, the value is a handful of outliers and does not repeat.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, errors.New("percentile of no samples")
	}
	rank := int(math.Ceil(float64(n)*p - 1e-9)) // 1-based nearest rank
	if p > 0.5 && n-rank < 10 {
		return 0, fmt.Errorf("p%g of %d samples: %w", p*100, n, errThinTail)
	}
	return sorted(xs)[max(rank, 1)-1], nil
}

// tail is percentile for a report that must not fail: when fewer than ten
// samples lie beyond the p-th percentile it returns the highest-ranked sample
// that does have ten beyond it, and the median when there is none. The shared
// host at times completes a third of the usual requests in the same time; the
// sample count printed beside the value says when that happened. No samples
// give 0.
func tail(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if v, err := percentile(xs, p); err == nil {
		return v
	}
	return max(sorted(xs)[max(len(xs)-11, 0)], median(xs))
}

// quartiles returns the first, second and third quartile of xs exactly as
// Python's statistics.quantiles(xs, n=4) does (the exclusive method), which
// is what the driver computes spreads with. len(xs) must be at least 2.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

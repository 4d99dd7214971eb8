package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"

	"treejoin"
	"treejoin/internal/synth"
)

// The same seed must give byte-identical inputs and the same arrival
// schedule; another seed must give different ones.
func TestInputsFollowTheSeed(t *testing.T) {
	inputs := func(seed int64) []byte {
		var all []byte
		for _, w := range []joinWorkload{joinWorkloads[joinSparse], joinWorkloads[joinDense]} {
			corpus, held := holdOut(w.generate(seed), w.holdEvery)
			all = append(all, bracketText(corpus)...)
			all = append(all, bracketText(held)...)
		}
		boot, queries, adds := genServe(seed, 400)
		for _, ts := range [][]*treejoin.Tree{boot, queries, adds, synth.Treebank(400, seed)} {
			all = append(all, bracketText(ts)...)
		}
		return all
	}
	if !bytes.Equal(inputs(7), inputs(7)) {
		t.Error("the same seed generated different inputs")
	}
	if bytes.Equal(inputs(7), inputs(8)) {
		t.Error("different seeds generated the same inputs")
	}

	a, b := schedule(7, 3*time.Second, 100), schedule(7, 3*time.Second, 100)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave different schedules")
	}
	if reflect.DeepEqual(a, schedule(8, 3*time.Second, 100)) {
		t.Error("different seeds gave the same schedule")
	}
	adds, removes := 0, 0
	for i, rq := range a {
		if i > 0 && rq.due < a[i-1].due {
			t.Fatalf("schedule not in due order at %d", i)
		}
		switch rq.op {
		case opAdd:
			adds++
		case opRemove:
			removes++
		}
	}
	// Every add older than removeLag at the end of the loop has its remove.
	if want := adds - int(removeLag/(time.Second/mutateRate)); removes != want {
		t.Errorf("%d adds, %d removes, want %d removes", adds, removes, want)
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, err := percentile(xs, 0.99); err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if _, err := percentile(xs[:999], 0.99); !errors.Is(err, errThinTail) {
		t.Errorf("p99 of 999 samples: err = %v, want errThinTail", err)
	}
	if _, err := percentile(xs[:199], 0.95); !errors.Is(err, errThinTail) {
		t.Errorf("p95 of 199 samples: err = %v, want errThinTail", err)
	}
	if v, err := percentile(xs[:200], 0.95); err != nil || v != 190 {
		t.Errorf("p95 of 1..200 = %v, %v; want 190", v, err)
	}
	if m := median([]float64{5, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	// tail reports instead of refusing: the percentile where it stands, else
	// the highest sample with ten beyond it, else the median.
	for _, c := range []struct {
		n    int
		p    float64
		want float64
	}{{1000, 0.99, 990}, {999, 0.99, 989}, {50, 0.99, 40}, {15, 0.9, 8}, {4, 0.9, 2.5}, {0, 0.9, 0}} {
		if v := tail(xs[:c.n], c.p); v != c.want {
			t.Errorf("tail(1..%d, %v) = %v, want %v", c.n, c.p, v, c.want)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), which is
// what the driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v %v %v, want 1 2 4", q1, q2, q3)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "b", Start: 20, End: 50}, // overlaps a: counted once
		{ID: 3, Parent: 2, Name: "c", Start: 25, End: 45},
		{ID: 4, Parent: 0, Name: "late", Start: 90, End: 120}, // clipped to the root
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{0: 50, 1: 20, 2: 10, 3: 20, 4: 30} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	if gap := closureGap(spans, "root"); gap != 0.5 {
		t.Errorf("closure gap = %v, want 0.5", gap)
	}
	var rec *recorder // the untraced run records nothing and must not crash
	rec.end(rec.begin("x", -1, 0), nil)
	if rec.all() != nil {
		t.Error("nil recorder returned spans")
	}
}

// A traced 200-tree run: the child spans of a cold rep must account for the
// rep (closure ≤ 5 %), every check must pass, and every metric the run
// reports must be a registered per-layer name.
func TestTracedRunCloses(t *testing.T) {
	dir := t.TempDir()
	corpus, held := holdOut(synth.Swissprot(208, 3), 8)
	in := joinInputs{filepath.Join(dir, "input.txt"), filepath.Join(dir, "queries.txt")}
	if err := os.WriteFile(in.input, bracketText(corpus), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(in.queries, bracketText(held), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := runJoin(joinConfig{
		Input: in.input, Queries: in.queries, Method: treejoin.MethodPartSJ,
		ColdTau: 2, WarmTau: 3, Seed: 3, Seconds: 0.2, Trace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Checks.Failed != 0 {
		t.Errorf("%d of %d checks failed: %v", out.Checks.Failed, out.Checks.Attempted, out.Checks.Msgs)
	}
	if gap := out.Layer["trace.closure_gap_share"].V; gap < 0 || gap > 0.05 {
		t.Errorf("closure gap %v, want within [0, 0.05]", gap)
	}
	known := map[string]bool{}
	for _, d := range perLayer {
		known[d.name] = true
	}
	for name := range out.Layer {
		if !known[name] {
			t.Errorf("run reported %q, which is not in the per-layer table", name)
		}
	}
	want, _ := bruteForce(corpus, 2, 0)
	if out.Digest != pairsDigest(want) {
		t.Errorf("cold join digest differs from brute force over all %d trees", len(corpus))
	}
}

// BENCHMARK.json and the rig's own tables must name the same workloads and
// the same metrics with the same units, and every name must be printable.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []def2 `json:"end_to_end"`
		PerLayer  []def2 `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	compare := func(what string, ours []def, theirs []def2) {
		t.Helper()
		got := map[string]string{}
		for _, d := range ours {
			if !name.MatchString(d.name) || !unit.MatchString(d.unit) {
				t.Errorf("%s: %q (%q) is not a valid name and unit", what, d.name, d.unit)
			}
			if _, dup := got[d.name]; dup {
				t.Errorf("%s: %q listed twice", what, d.name)
			}
			got[d.name] = d.unit
		}
		for _, d := range theirs {
			if u, ok := got[d.Name]; !ok {
				t.Errorf("%s: BENCHMARK.json has %q, the rig does not", what, d.Name)
			} else if u != d.Unit {
				t.Errorf("%s: %q is %q in BENCHMARK.json and %q in the rig", what, d.Name, d.Unit, u)
			}
			delete(got, d.Name)
		}
		for n := range got {
			t.Errorf("%s: the rig prints %q, BENCHMARK.json does not list it", what, n)
		}
	}
	compare("end_to_end", endToEnd, spec.EndToEnd)
	compare("per_layer", perLayer, spec.PerLayer)

	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, rig workloads %v", names, workloadNames)
	}
	for w := range baseline.Digests {
		if !known(w) {
			t.Errorf("baseline.json records a digest for unknown workload %q", w)
		}
	}
}

type def2 struct{ Name, Unit string }

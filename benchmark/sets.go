package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
)

//go:embed baseline.json
var baselineJSON []byte

// baseline is what this commit measured when the bounds were fixed: the pair
// digest of every workload at the recorded seed (a run at that seed must
// reproduce it) and the medians the bounds in BENCHMARK.json were set from.
var baseline struct {
	Seed    int64                         `json:"seed"`
	Digests map[string]string             `json:"digests"`
	Medians map[string]map[string]float64 `json:"medians"`
}

func init() {
	if err := json.Unmarshal(baselineJSON, &baseline); err != nil {
		panic("benchmark/baseline.json: " + err.Error())
	}
}

// bound is one end-to-end metric's entry in BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// runSets is the rig's check on itself, the same one the driver makes: it
// runs `sets` sets of `runs` runs per workload (run k of every set uses seed
// o.seed+k), prints each end-to-end metric's median, quartiles and relative
// spread, and returns non-zero if a set's spread exceeds the metric's bound
// (setup_s excepted, as for the driver) or a later set's median is worse than
// the first's by more than the bound.
func runSets(names []string, o runOpts, sets, runs int) int {
	var spec struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	blob, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(blob, &spec)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: BENCHMARK.json: %v\n", err)
		return 1
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	printEnv(o.seed)

	// vals[workload][metric][set] are the set's values, one per run.
	vals := map[string]map[string][][]float64{}
	for set := 0; set < sets; set++ {
		for _, name := range names {
			if vals[name] == nil {
				vals[name] = map[string][][]float64{}
			}
			for k := 0; k < runs; k++ {
				cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(o.seed+int64(k)), "-seconds", fmt.Sprint(o.seconds))
				cmd.Stderr = os.Stderr
				out, err := cmd.Output()
				var res result
				if err == nil {
					err = json.Unmarshal(lastLine(out), &res)
				}
				if err != nil || !res.Correct {
					fmt.Fprintf(os.Stderr, "benchmark: set %d, %s, seed %d: %v (correct=%v)\n%s", set, name, o.seed+int64(k), err, res.Correct, out)
					return 1
				}
				fmt.Printf("set %d %s seed %d: %s\n", set, name, o.seed+int64(k), lastLine(out))
				for m, v := range res.Metrics {
					for len(vals[name][m]) <= set {
						vals[name][m] = append(vals[name][m], nil)
					}
					vals[name][m][set] = append(vals[name][m][set], v.Value)
				}
			}
		}
	}

	bad := 0
	fmt.Printf("\n%-12s %-20s %12s %12s %12s %8s %8s %6s\n", "workload", "metric", "median", "q1", "q3", "spread", "drift", "bound")
	for _, name := range names {
		for _, b := range spec.EndToEnd {
			bySet := vals[name][b.Name]
			var all []float64
			for _, vs := range bySet {
				all = append(all, vs...)
			}
			// With one run per set the sets' values are the sample; otherwise
			// each set has its own spread and the widest is reported.
			groups := bySet
			if runs == 1 {
				groups = [][]float64{all}
			}
			spread := 0.0
			var q1, q3 float64
			for _, g := range groups {
				if len(g) < 2 {
					continue
				}
				a, med, c := quartiles(g)
				if s := (c - a) / med; s >= spread {
					spread, q1, q3 = s, a, c
				}
			}
			// drift: how much worse than the first set's median a later one is.
			drift := 0.0
			first := median(bySet[0])
			for _, vs := range bySet[1:] {
				w := (median(vs) - first) / first
				if b.Better == "higher" {
					w = -w
				}
				drift = max(drift, w)
			}
			flag := ""
			if drift > b.Bound || spread > b.Bound && b.Name != "setup_s" {
				flag = "  OUT OF BOUND"
				bad++
			}
			fmt.Printf("%-12s %-20s %12.6g %12.6g %12.6g %8.4f %8.4f %6.2f%s\n", name, b.Name, median(all), q1, q3, spread, drift, b.Bound, flag)
		}
	}
	if bad > 0 {
		fmt.Printf("%d metrics out of bound\n", bad)
		return 1
	}
	return 0
}

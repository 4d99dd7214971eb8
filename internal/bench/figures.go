package bench

import (
	"fmt"

	"treejoin/internal/synth"
	"treejoin/internal/tree"
)

// compareMethods are the three methods of the paper's main comparison.
var compareMethods = []Method{STR, SET, PRT}

// Figure10And11 reproduces "Runtime on all the datasets w.r.t. TED threshold
// τ" (Figure 10) and "Number of candidates generated ... w.r.t. τ"
// (Figure 11): for each dataset and τ ∈ 1..5 it measures STR, SET and PRT,
// returning one runtime table and one candidate table per dataset. REL (the
// true result count) is read off the runs, since all methods verify to the
// same result set.
func Figure10And11(c Config) (runtime, candidates []*Table) {
	for _, ds := range Datasets(c) {
		rt := &Table{
			Title:   fmt.Sprintf("Figure 10 (%s, %d trees): runtime vs τ", ds.Name, len(ds.Trees)),
			Columns: []string{"tau", "method", "candgen", "verify", "total"},
		}
		ct := &Table{
			Title:   fmt.Sprintf("Figure 11 (%s, %d trees): candidates vs τ", ds.Name, len(ds.Trees)),
			Columns: []string{"tau", "STR", "SET", "PRT", "REL"},
		}
		for tau := 1; tau <= 5; tau++ {
			byMethod := map[Method]Result{}
			for _, m := range compareMethods {
				r := Run(m, ds.Name, ds.Trees, tau, c.Workers)
				byMethod[m] = r
				rt.AddRow(fmt.Sprintf("%d", tau), string(m), dur(r.CandGen), dur(r.Verify), dur(r.Total()))
				c.report("fig10/11 %s τ=%d %s: total=%v cand=%d", ds.Name, tau, m, r.Total(), r.Candidates)
			}
			ct.AddRow(fmt.Sprintf("%d", tau),
				count(byMethod[STR].Candidates), count(byMethod[SET].Candidates),
				count(byMethod[PRT].Candidates), count(byMethod[PRT].Results))
		}
		runtime = append(runtime, rt)
		candidates = append(candidates, ct)
	}
	return runtime, candidates
}

// Figure12And13 reproduces the scalability experiments: runtime (Figure 12)
// and candidates (Figure 13) versus dataset cardinality at τ = 3. The paper
// uses five cardinality steps per dataset (20–100%); so does this.
func Figure12And13(c Config) (runtime, candidates []*Table) {
	const tau = 3
	for _, ds := range Datasets(c) {
		rt := &Table{
			Title:   fmt.Sprintf("Figure 12 (%s): runtime vs cardinality, τ=%d", ds.Name, tau),
			Columns: []string{"trees", "method", "candgen", "verify", "total"},
		}
		ct := &Table{
			Title:   fmt.Sprintf("Figure 13 (%s): candidates vs cardinality, τ=%d", ds.Name, tau),
			Columns: []string{"trees", "STR", "SET", "PRT", "REL"},
		}
		for step := 1; step <= 5; step++ {
			n := len(ds.Trees) * step / 5
			sub := ds.Trees[:n]
			byMethod := map[Method]Result{}
			for _, m := range compareMethods {
				r := Run(m, ds.Name, sub, tau, c.Workers)
				byMethod[m] = r
				rt.AddRow(fmt.Sprintf("%d", n), string(m), dur(r.CandGen), dur(r.Verify), dur(r.Total()))
				c.report("fig12/13 %s n=%d %s: total=%v", ds.Name, n, m, r.Total())
			}
			ct.AddRow(fmt.Sprintf("%d", n),
				count(byMethod[STR].Candidates), count(byMethod[SET].Candidates),
				count(byMethod[PRT].Candidates), count(byMethod[PRT].Results))
		}
		runtime = append(runtime, rt)
		candidates = append(candidates, ct)
	}
	return runtime, candidates
}

// Table 1 of the paper: the synthetic-data parameter grid (defaults bold).
var (
	fanouts = []int{2, 3, 4, 5, 6}
	depths  = []int{4, 5, 6, 7, 8}
	labels  = []int{3, 5, 10, 20, 50}
	sizes   = []int{40, 80, 120, 160, 200}
)

const (
	defFanout = 3
	defDepth  = 5
	defLabels = 20
	defSize   = 80
)

// Figure14 reproduces the sensitivity analysis: synthetic collections where
// one of maximum fanout f, maximum depth d, label count l, average tree size
// t varies while the others stay at their defaults; τ = 3, 10K trees (scaled
// by Config.Scale). Panels (a,b) vary f, (c,d) vary d, (e,f) vary l, (g,h)
// vary t; each parameter yields one runtime and one candidate table.
func Figure14(c Config) (runtime, candidates []*Table) {
	const tau = 3
	n := c.n(10000)
	type sweep struct {
		param  string
		values []int
		gen    func(v int) []*tree.Tree
	}
	sweeps := []sweep{
		{"fanout f", fanouts, func(v int) []*tree.Tree {
			return synth.Generate(synth.SyntheticParams(n, v, defDepth, defLabels, defSize, c.Seed))
		}},
		{"depth d", depths, func(v int) []*tree.Tree {
			return synth.Generate(synth.SyntheticParams(n, defFanout, v, defLabels, defSize, c.Seed))
		}},
		{"labels l", labels, func(v int) []*tree.Tree {
			return synth.Generate(synth.SyntheticParams(n, defFanout, defDepth, v, defSize, c.Seed))
		}},
		{"tree size t", sizes, func(v int) []*tree.Tree {
			return synth.Generate(synth.SyntheticParams(n, defFanout, defDepth, defLabels, v, c.Seed))
		}},
	}
	for _, sw := range sweeps {
		rt := &Table{
			Title:   fmt.Sprintf("Figure 14 (%s, %d trees): runtime, τ=%d", sw.param, n, tau),
			Columns: []string{sw.param, "method", "candgen", "verify", "total"},
		}
		ct := &Table{
			Title:   fmt.Sprintf("Figure 14 (%s, %d trees): candidates, τ=%d", sw.param, n, tau),
			Columns: []string{sw.param, "STR", "SET", "PRT", "REL"},
		}
		for _, v := range sw.values {
			ts := sw.gen(v)
			byMethod := map[Method]Result{}
			for _, m := range compareMethods {
				r := Run(m, sw.param, ts, tau, c.Workers)
				byMethod[m] = r
				rt.AddRow(fmt.Sprintf("%d", v), string(m), dur(r.CandGen), dur(r.Verify), dur(r.Total()))
				c.report("fig14 %s=%d %s: total=%v", sw.param, v, m, r.Total())
			}
			ct.AddRow(fmt.Sprintf("%d", v),
				count(byMethod[STR].Candidates), count(byMethod[SET].Candidates),
				count(byMethod[PRT].Candidates), count(byMethod[PRT].Results))
		}
		runtime = append(runtime, rt)
		candidates = append(candidates, ct)
	}
	return runtime, candidates
}

// BaselinePanorama compares every filtering method in this module — the
// paper's STR/SET/PRT plus the survey's other filters (HIST of Kailing et
// al., EUL of Akutsu et al.) — on the synthetic dataset across τ. A
// reproduction extension (not a paper figure): it places PartSJ inside the
// wider lower-bound landscape of the survey [18].
func BaselinePanorama(c Config) *Table {
	ts := synth.Synthetic(c.n(10000), c.Seed)
	t := &Table{
		Title:   fmt.Sprintf("Extension: all filtering methods (%d trees)", len(ts)),
		Columns: []string{"tau", "method", "candidates", "candgen", "verify", "total"},
	}
	for tau := 1; tau <= 5; tau++ {
		for _, m := range []Method{STR, SET, HIST, EUL, PRT} {
			r := Run(m, "Synthetic", ts, tau, c.Workers)
			t.AddRow(fmt.Sprintf("%d", tau), string(m),
				count(r.Candidates), dur(r.CandGen), dur(r.Verify), dur(r.Total()))
			c.report("panorama τ=%d %s: cand=%d total=%v", tau, m, r.Candidates, r.Total())
		}
	}
	return t
}

// FilterPipeline measures the engine's filter chaining: each method alone
// versus the same method with the cheap HIST statistics screen chained in
// front of it, with per-stage kill attribution. An engine extension (not a
// paper figure): it shows where a cascade's pruning happens and what the
// cheap first link saves the expensive second one.
func FilterPipeline(c Config) *Table {
	ts := synth.Synthetic(c.n(10000), c.Seed)
	t := &Table{
		Title:   fmt.Sprintf("Extension: filter pipelines (%d trees)", len(ts)),
		Columns: []string{"tau", "pipeline", "stage kills", "candidates", "candgen", "total"},
	}
	for tau := 1; tau <= 3; tau += 2 {
		for _, m := range []Method{PRT, PRTHist, STR, STRHist, PQG, PQGHist} {
			r := Run(m, "Synthetic", ts, tau, c.Workers)
			kills := "-"
			if len(r.Stages) > 0 {
				kills = ""
				for i, s := range r.Stages {
					if i > 0 {
						kills += " "
					}
					kills += fmt.Sprintf("%s:%s", s.Name, count(s.Pruned))
				}
			}
			t.AddRow(fmt.Sprintf("%d", tau), string(m), kills,
				count(r.Candidates), dur(r.CandGen), dur(r.Total()))
			c.report("pipeline τ=%d %s: cand=%d total=%v", tau, m, r.Candidates, r.Total())
		}
	}
	return t
}

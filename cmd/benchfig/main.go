// Command benchfig regenerates the paper's evaluation figures (runtime and
// candidate counts for Figures 10–14) and two extensions, every filtering
// method side by side and the filter pipelines, printing each as a text
// table. Every join runs through the public Corpus API.
//
// Usage:
//
//	benchfig -figure all -scale 0.01 -seed 1 [-workers 1] [-markdown] [-v]
//
// -figure selects one of: 10, 11, 12, 13, 14, panorama, pipeline, all
// (Figures 10/11 share runs, as do 12/13, so asking for either member of a
// pair runs both and prints the requested one).
// -scale multiplies the paper's collection cardinalities (100K/50K/10K/10K).
// -workers is each join's worker count: 1, the default, runs sequentially as
// the paper did; a value below 1 uses every core.
//
// §4.3's balanced-against-random partitioning ablation is
// BenchmarkAblationPartitioning in internal/core:
//
//	go test -run '^$' -bench AblationPartitioning ./internal/core
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"treejoin/internal/bench"
)

func main() {
	var (
		figure   = flag.String("figure", "all", "10|11|12|13|14|panorama|pipeline|all")
		scale    = flag.Float64("scale", 0.01, "fraction of the paper's dataset cardinalities")
		seed     = flag.Int64("seed", 1, "generator seed")
		workers  = flag.Int("workers", 1, "workers per join (1 = sequential, as the paper ran; below 1 = every core)")
		markdown = flag.Bool("markdown", false, "emit GitHub-flavored markdown tables")
		verbose  = flag.Bool("v", false, "print per-join progress to stderr")
	)
	flag.Parse()

	cfg := bench.Config{Scale: *scale, Seed: *seed, Workers: *workers}
	if *verbose {
		cfg.Progress = func(s string) { fmt.Fprintln(os.Stderr, s) }
	}
	render := func(tabs ...*bench.Table) {
		for _, t := range tabs {
			if *markdown {
				t.RenderMarkdown(os.Stdout)
			} else {
				t.Render(os.Stdout)
			}
		}
	}

	start := time.Now()
	switch *figure {
	case "10":
		rt, _ := bench.Figure10And11(cfg)
		render(rt...)
	case "11":
		_, ct := bench.Figure10And11(cfg)
		render(ct...)
	case "12":
		rt, _ := bench.Figure12And13(cfg)
		render(rt...)
	case "13":
		_, ct := bench.Figure12And13(cfg)
		render(ct...)
	case "14":
		rt, ct := bench.Figure14(cfg)
		render(rt...)
		render(ct...)
	case "panorama":
		render(bench.BaselinePanorama(cfg))
	case "pipeline":
		render(bench.FilterPipeline(cfg))
	case "all":
		rt10, ct11 := bench.Figure10And11(cfg)
		render(rt10...)
		render(ct11...)
		rt12, ct13 := bench.Figure12And13(cfg)
		render(rt12...)
		render(ct13...)
		rt14, ct14 := bench.Figure14(cfg)
		render(rt14...)
		render(ct14...)
		render(bench.BaselinePanorama(cfg))
		render(bench.FilterPipeline(cfg))
	default:
		fmt.Fprintf(os.Stderr, "benchfig: unknown figure %q\n", *figure)
		flag.Usage()
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "benchfig: done in %v (scale %.3g, seed %d)\n", time.Since(start).Round(time.Millisecond), *scale, *seed)
}

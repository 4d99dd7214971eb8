package engine

import (
	"fmt"
	"reflect"
	"testing"

	"treejoin/internal/sim"
	"treejoin/internal/tree"
)

// TestBuildWorkerInvariance: the index built on any number of workers is the
// one-worker build field for field — every posting list, every light list,
// the prefix lengths and the bags — for both tokenizers, thresholds from
// exact matching through bag-saturating, self and cross joins, the default
// prefix and a doubled one, and a collection smaller than the worker count.
func TestBuildWorkerInvariance(t *testing.T) {
	ts := mixedCorpus(60, 11)
	for _, tz := range refTokenizers() {
		for _, tau := range []int{0, 1, 2, 4, 8} {
			for _, split := range []int{-1, 25} {
				for _, prefixC := range []int{0, 2 * tz.Slack()} {
					for _, col := range [][]*tree.Tree{ts, ts[len(ts)-5:]} {
						order := sim.SizeOrder(col)
						sp := min(split, len(col)/2)
						cmul := max(tz.Slack(), prefixC)
						want := buildPrefixIndex(tz, col, sp, order, tau, cmul, 1, NewCache())
						for _, workers := range []int{1, 2, 3, 8} {
							label := fmt.Sprintf("%s τ=%d split=%d C'=%d n=%d workers=%d", tz.Name(), tau, sp, prefixC, len(col), workers)
							got := buildPrefixIndex(tz, col, sp, order, tau, cmul, workers, NewCache())
							got.built = want.built
							if !reflect.DeepEqual(got.sides, want.sides) {
								t.Fatalf("%s: posting or light lists differ from the one-worker build", label)
							}
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("%s: index differs from the one-worker build", label)
							}
						}
					}
				}
			}
		}
	}
}

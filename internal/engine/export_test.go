package engine

import "treejoin/internal/tree"

// Distinct returns the number of distinct tokens rk ranks, for the external
// tests' benchmarks.
func (rk *TokenRanking) Distinct() int { return int(rk.ids) }

// BuildIndex builds the token index of ts at tau over its own ranking, on
// workers goroutines and a private cache: what a test hands TokenIndex.
func BuildIndex(tz Tokenizer, ts []*tree.Tree, tau, workers int) *PrefixIndex {
	return NewPrefixIndex(NewTokenRanking(tz, ts, workers, nil), tau)
}

package engine

// Distinct returns the number of distinct tokens rk ranks, for the external
// tests' benchmarks.
func (rk *TokenRanking) Distinct() int { return int(rk.ids) }

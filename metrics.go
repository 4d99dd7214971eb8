package treejoin

import (
	"treejoin/internal/pqgram"
	"treejoin/internal/ted"
)

// Costs defines a weighted edit-operation model for DistanceWithCosts.
type Costs = ted.Costs

// UnitCosts is the standard model (every operation costs 1);
// DistanceWithCosts with UnitCosts equals Distance.
type UnitCosts = ted.UnitCosts

// WeightedCosts assigns constant weights per operation kind.
type WeightedCosts = ted.WeightedCosts

// DistanceWithCosts returns the minimum-cost edit script total between a and
// b under an arbitrary cost model. The similarity join's guarantees are
// proved for unit costs, so weighted distances are available here but not as
// a join threshold.
func DistanceWithCosts(a, b *Tree, costs Costs) int64 { return ted.DistanceCosts(a, b, costs) }

// ConstrainedDistance returns the constrained (LCA-preserving) edit distance
// between a and b under unit costs — the O(|a|·|b|) restriction of TED where
// disjoint subtrees must map to disjoint subtrees (Zhang 1995; the paper's
// related work [15, 24]). It never underestimates: ConstrainedDistance ≥
// Distance, with equality whenever the optimal mapping happens to preserve
// least common ancestors, so it doubles as a fast conservative screen — a
// pair within τ under the constrained distance is certainly within τ under
// TED.
func ConstrainedDistance(a, b *Tree) int { return ted.ConstrainedDistance(a, b) }

// ConstrainedDistanceWithCosts is ConstrainedDistance under an arbitrary
// cost model.
func ConstrainedDistanceWithCosts(a, b *Tree, costs Costs) int64 {
	return ted.ConstrainedDistanceCosts(a, b, costs)
}

// PQGramProfile is the bag of a tree's pq-grams, the alternative tree
// similarity measure of Augsten et al. discussed in the paper's related
// work. Profiles are cheap to build (linear time) and compare, but the
// pq-gram distance is an approximation, not a TED bound.
type PQGramProfile = pqgram.Profile

// NewPQGramProfile computes the pq-gram profile of t with stem length p and
// base width q (2 and 3 are the customary defaults).
func NewPQGramProfile(t *Tree, p, q int) *PQGramProfile { return pqgram.New(t, p, q) }

// PQGramDistance returns the normalised pq-gram distance in [0, 1] between
// two profiles of the same shape.
func PQGramDistance(a, b *PQGramProfile) float64 { return pqgram.Distance(a, b) }

package baseline

import (
	"treejoin/internal/engine"
	"treejoin/internal/strdist"
)

// The baselines' lower bounds as composable engine stages. Each constructor
// packages one method's per-tree precomputation and pair predicate into an
// engine.PairFilter, so the same bound serves as a standalone join method
// (this package's STR/SET/HIST/EUL), as a prefilter chained in front of any
// other method (the public WithPrefilter option), or as one link of a
// cheap-to-expensive filter cascade. Every predicate is a sound TED lower
// bound test: it prunes a pair only when the bound proves TED > τ.
//
// The per-tree signatures (traversal strings, branch vectors, histogram
// profiles, Euler strings) do not depend on τ, so Prepare fetches them
// through the run's artifact cache: a corpus-backed join computes each tree's
// signature once, ever, and later joins at any threshold reuse it. Only the
// pair predicates, which capture τ, are rebuilt per run.

// Stage is one filter method's stage: the filter its lower bound runs as, and
// the tokenizer of the bag that bound (or a sound sibling of it) is stated
// on, which the method's token-index source posts.
type Stage struct {
	Filter    func() engine.PairFilter
	Tokenizer func() engine.Tokenizer
}

// Stages is the one table of the filter methods, keyed by the name a join
// method, its prefilter and its stage share: Euler q-grams index the
// string/gram class, label-histogram entries the histogram/branch class.
var Stages = map[string]Stage{
	"HIST": {HISTFilter, LabelTokenizer},
	"STR":  {STRFilter, EulerGramTokenizer},
	"SET":  {SETFilter, LabelTokenizer},
	"EUL":  {EULFilter, EulerGramTokenizer},
	"PQG":  {PQGFilter, EulerGramTokenizer},
}

// STRFilter returns the traversal-string stage (Guha et al.): the unit-cost
// string edit distance between the preorder (resp. postorder) label
// sequences of two trees never exceeds their TED, so a pair whose preorder
// or postorder sequences differ by more than τ cannot be a result. Sequence
// distances are computed with the τ-banded algorithm, matching the original
// method's cost profile: candidate generation is a string join over all
// size-compatible pairs and dominates at small τ (cf. Figure 10). The stage
// keeps no signature of its own: it reads the verifier's arena views, whose
// Labels are the postorder and whose RLabels, the mirrored postorder, are the
// preorder reversed — and reversing both strings leaves their edit distance
// unchanged.
func STRFilter() engine.PairFilter {
	return engine.NewFilter("STR", func(c *engine.Collection) func(i, j int) bool {
		views := engine.ArenaFor(c.Cache(), c.Trees, c.Workers)
		tau := c.Tau
		return func(i, j int) bool {
			if strdist.Bounded(views[i].RLabels, views[j].RLabels, tau) > tau {
				return false
			}
			return strdist.Bounded(views[i].Labels, views[j].Labels, tau) <= tau
		}
	})
}

// SETFilter returns the binary branch stage (Yang et al.): a pair is pruned
// when its binary branch distance exceeds 5τ. The branch structure is
// insensitive to τ, so — exactly as the paper observes — the test is cheap
// but the candidate set grows quickly with τ.
func SETFilter() engine.PairFilter {
	return engine.NewFilter("SET", func(c *engine.Collection) func(i, j int) bool {
		vecs := engine.Cached(c.Cache(), "set/branches", c.Trees, c.Workers, BranchVector)
		limit := 5 * c.Tau
		return func(i, j int) bool {
			return BIB(vecs[i], vecs[j]) <= limit
		}
	})
}

// HISTFilter returns the statistics-histogram stage (Kailing et al.): a pair
// is pruned when any of the five statistic lower bounds (size, leaves,
// height, label histogram, degree histogram — see hist.go for the proofs)
// exceeds τ. Profile extraction is linear and each pair test touches only
// the sparse histograms, making this the cheapest filter per pair and the
// natural first link of a prefilter chain.
func HISTFilter() engine.PairFilter {
	return engine.NewFilter("HIST", func(c *engine.Collection) func(i, j int) bool {
		profiles := engine.Cached(c.Cache(), "hist/profiles", c.Trees, c.Workers, NewHistProfile)
		tau := c.Tau
		return func(i, j int) bool {
			return HistLowerBound(profiles[i], profiles[j]) <= tau
		}
	})
}

// EULFilter returns the Euler-string stage (Akutsu et al.): a pair is pruned
// when the 2τ-banded string edit distance of the Euler strings exceeds 2τ.
// Like STR the test is a banded string comparison — at twice the string
// length and band width, so it costs roughly 4× STR's while pruning slightly
// more shape changes (the close symbols encode where subtrees end).
func EULFilter() engine.PairFilter {
	return engine.NewFilter("EUL", func(c *engine.Collection) func(i, j int) bool {
		eulers := engine.Cached(c.Cache(), "eul/strings", c.Trees, c.Workers, EulerString)
		tau := c.Tau
		return func(i, j int) bool {
			return EulerLowerBound(eulers[i], eulers[j], tau) <= tau
		}
	})
}

// Package baseline implements the competitors the paper evaluates PartSJ
// against (§2, §4) plus the survey's other lower-bound filters:
//
//   - BF (brute force): nested loop with only the size filter — the
//     ground-truth oracle and the source of the REL series in Figures 11/13.
//   - STR (Guha et al. [13]): prunes a pair when the string edit distance of
//     the trees' preorder or postorder label sequences — both TED lower
//     bounds — exceeds τ.
//   - SET (Yang et al. [27]): prunes a pair when the binary branch distance
//     exceeds 5τ, using BIB(T1,T2) ≤ 5·TED(T1,T2).
//   - HIST (Kailing et al. [16]): statistic-histogram lower bounds.
//   - EUL (Akutsu et al. [1]): the Euler-string edit distance bound.
//   - PQG: the Euler-tour q-gram bag bound, the exact-join cousin of the
//     pq-gram profile (grams.go).
//
// Each method is its filter, an engine.PairFilter (filters.go) that any join
// can chain: the method's own join is the shared engine's sorted nested loop
// (engine.SortedLoop) feeding that filter, with survivors going to the shared
// TED verifier; brute force is the loop with no filter at all.
package baseline

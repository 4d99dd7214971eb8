// Package radix orders integer slices without comparisons: the one sort
// behind the per-tree artifacts a cold join builds — the token bags' keys,
// the ranked bags' ids and the views' label multisets.
package radix

import "math/bits"

const (
	// insertionMax is the longest run Sort finishes by insertion: below it
	// a bucket pass costs more than the few comparisons it saves.
	insertionMax = 16
	// digitMax is the widest digit a pass buckets on: 256 counters.
	digitMax = 8
)

// Sort orders s ascending, with tmp (at least as long as s) as its scatter
// buffer; int32 keys must not be negative. Only the bits in which the keys
// differ are sorted on, a digit at a time, a digit as wide as the run's
// length has bits (at most digitMax). When those bits fit two full digits
// (ids, labels) it is an LSD radix over them; wider keys (hashes) take one
// MSD pass on their top digit, which spreads uniform keys into buckets of
// about one key, and each longer bucket is sorted the same way. Runs and
// buckets of insertionMax or fewer keys are finished by insertion, and a run
// of equal keys costs one read. Nothing is allocated.
func Sort[K ~uint64 | ~int32](s, tmp []K) {
	if len(s) <= insertionMax {
		insertion(s)
		return
	}
	var diff uint64
	for _, k := range s[1:] {
		diff |= uint64(k ^ s[0])
	}
	if diff == 0 {
		return
	}
	var counts [1 << digitMax]int32
	tmp = tmp[:len(s)]
	width, digit := bits.Len64(diff), min(bits.Len(uint(len(s))), digitMax)
	if width <= 2*digitMax {
		passes := (width + digit - 1) / digit
		digit = (width + passes - 1) / passes
		src, dst := s, tmp
		for p := range passes {
			scatter(src, dst, p*digit, counts[:1<<digit])
			src, dst = dst, src
		}
		if passes%2 == 1 {
			copy(s, src)
		}
		return
	}
	end := counts[:1<<digit]
	scatter(s, tmp, width-digit, end)
	copy(s, tmp)
	// The long buckets are sorted the same way; one insertion pass then
	// finishes the short ones, whose keys are already inside their bucket.
	var lo int32
	for _, hi := range end {
		if hi-lo > insertionMax {
			Sort(s[lo:hi], tmp[lo:hi])
		}
		lo = hi
	}
	insertion(s)
}

// insertion sorts s by insertion: a pass over s when it is almost in order.
func insertion[K ~uint64 | ~int32](s []K) {
	for i := 1; i < len(s); i++ {
		k, j := s[i], i
		for ; j > 0 && s[j-1] > k; j-- {
			s[j] = s[j-1]
		}
		s[j] = k
	}
}

// scatter moves src into dst ordered by the digit of len(end) buckets at
// shift, stably, and leaves in end[b] where bucket b ends.
func scatter[K ~uint64 | ~int32](src, dst []K, shift int, end []int32) {
	mask := uint64(len(end) - 1)
	clear(end)
	for _, k := range src {
		end[uint64(k)>>shift&mask]++
	}
	var sum int32
	for b, c := range end {
		end[b] = sum
		sum += c
	}
	for _, k := range src {
		b := uint64(k) >> shift & mask
		dst[end[b]] = k
		end[b]++
	}
}

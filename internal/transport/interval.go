package transport

import "sort"

// IntervalSet tracks a union of disjoint half-open byte ranges [a, b).
// Receivers use it to reassemble flows; PPT senders use it to skip bytes
// the low-priority loop already delivered (the SACK scoreboard of §5.2).
type IntervalSet struct {
	// iv holds disjoint, sorted, non-adjacent intervals.
	iv    [][2]int64
	total int64
}

// Reset empties the set in place, keeping the backing array so a
// recycled set stops allocating once it has seen its high-water
// interval count.
func (s *IntervalSet) Reset() {
	s.iv = s.iv[:0]
	s.total = 0
}

// Add inserts [a, b) and returns how many bytes were newly covered.
func (s *IntervalSet) Add(a, b int64) int64 {
	if a >= b {
		return 0
	}
	// Find first interval ending at or after a (adjacency merges too).
	i := sort.Search(len(s.iv), func(i int) bool { return s.iv[i][1] >= a })
	newA, newB := a, b
	j := i
	var overlap int64
	for ; j < len(s.iv) && s.iv[j][0] <= b; j++ {
		lo, hi := s.iv[j][0], s.iv[j][1]
		if lo < newA {
			newA = lo
		}
		if hi > newB {
			newB = hi
		}
		// Count the overlap with the inserted range for new-byte math.
		oLo, oHi := max(lo, a), min(hi, b)
		if oLo < oHi {
			overlap += oHi - oLo
		}
	}
	added := (b - a) - overlap
	if added == 0 && i < len(s.iv) && s.iv[i][0] <= a && s.iv[i][1] >= b {
		return 0
	}
	if i == j {
		// No overlap or adjacency: open a gap at i. The append only
		// grows the backing array amortized; everything else below
		// mutates in place, so a long-lived set stops allocating once
		// it reaches its high-water interval count.
		s.iv = append(s.iv, [2]int64{})
		copy(s.iv[i+1:], s.iv[i:])
		s.iv[i] = [2]int64{newA, newB}
	} else {
		// Collapse intervals [i, j) into one merged range.
		s.iv[i] = [2]int64{newA, newB}
		if j > i+1 {
			n := copy(s.iv[i+1:], s.iv[j:])
			s.iv = s.iv[:i+1+n]
		}
	}
	s.total += added
	return added
}

// Contains reports whether [a, b) is fully covered.
func (s *IntervalSet) Contains(a, b int64) bool {
	if a >= b {
		return true
	}
	i := sort.Search(len(s.iv), func(i int) bool { return s.iv[i][1] > a })
	return i < len(s.iv) && s.iv[i][0] <= a && s.iv[i][1] >= b
}

// CoveredIn returns the number of covered bytes within [a, b).
func (s *IntervalSet) CoveredIn(a, b int64) int64 {
	var n int64
	i := sort.Search(len(s.iv), func(i int) bool { return s.iv[i][1] > a })
	for ; i < len(s.iv) && s.iv[i][0] < b; i++ {
		lo, hi := max(s.iv[i][0], a), min(s.iv[i][1], b)
		if lo < hi {
			n += hi - lo
		}
	}
	return n
}

// Total returns the covered byte count.
func (s *IntervalSet) Total() int64 { return s.total }

// Len returns the number of disjoint intervals.
func (s *IntervalSet) Len() int { return len(s.iv) }

// ContiguousFrom returns the end of the covered run starting at a, i.e.
// the largest e such that [a, e) is covered (e == a when a is uncovered).
func (s *IntervalSet) ContiguousFrom(a int64) int64 {
	i := sort.Search(len(s.iv), func(i int) bool { return s.iv[i][1] > a })
	if i < len(s.iv) && s.iv[i][0] <= a {
		return s.iv[i][1]
	}
	return a
}

// ContiguousBack returns the start of the covered run ending at b, i.e.
// the smallest t such that [t, b) is covered (t == b when uncovered).
func (s *IntervalSet) ContiguousBack(b int64) int64 {
	i := sort.Search(len(s.iv), func(i int) bool { return s.iv[i][1] >= b })
	if i < len(s.iv) && s.iv[i][0] < b && s.iv[i][1] >= b {
		return s.iv[i][0]
	}
	return b
}

// Max returns the end of the highest interval (0 when empty).
func (s *IntervalSet) Max() int64 {
	if len(s.iv) == 0 {
		return 0
	}
	return s.iv[len(s.iv)-1][1]
}

// FirstCoveredIn returns the smallest covered offset in [a, b), or b
// when none is covered.
func (s *IntervalSet) FirstCoveredIn(a, b int64) int64 {
	i := sort.Search(len(s.iv), func(i int) bool { return s.iv[i][1] > a })
	if i < len(s.iv) && s.iv[i][0] < b {
		if s.iv[i][0] > a {
			return s.iv[i][0]
		}
		return a
	}
	return b
}

// NextGap returns the first uncovered byte at or after a, clamped to
// limit.
func (s *IntervalSet) NextGap(a, limit int64) int64 {
	g := s.ContiguousFrom(a)
	if g > limit {
		return limit
	}
	return g
}

package topo

import "ppt/internal/sim"

// Lookahead is the per-shard-pair lookahead matrix of a partitioned
// fabric. At(s, d) is the minimum propagation delay along any
// cross-shard wire path from shard s to shard d: a packet finishing
// serialization in s at time t cannot influence d before t + At(s, d).
// Intra-shard hops are free (they cost only serialization, which is
// non-negative), so each entry is a lower bound on real influence
// latency — the conservative direction.
//
// The diagonal At(d, d) is the minimum *cycle* delay through some other
// shard (d -> u -> d), not zero: a shard's own transmissions can come
// back to influence it after a round trip, and the windowed driver must
// bound a shard's advance by that reflection. Unreachable pairs hold
// sim.MaxTime.
//
// The matrix is a pure function of the wire graph — never of
// Config.Shards or worker count — so every simulated outcome derived
// from it is identical for every Shards >= 1.
type Lookahead struct {
	n int
	d []sim.Time // row-major n×n; sim.MaxTime = unreachable
}

// NewLookahead returns an n-shard matrix with every pair (including the
// diagonal) unreachable. Builders add wires, then call Close.
func NewLookahead(n int) *Lookahead {
	l := &Lookahead{n: n, d: make([]sim.Time, n*n)}
	for i := range l.d {
		l.d[i] = sim.MaxTime
	}
	return l
}

// N returns the shard count.
func (l *Lookahead) N() int { return l.n }

// AddWire records a directed cross-shard wire of the given propagation
// delay, keeping the minimum when parallel wires connect the same pair.
func (l *Lookahead) AddWire(src, dst int, delay sim.Time) {
	if src == dst {
		return // intra-shard wires don't constrain the matrix
	}
	if i := src*l.n + dst; delay < l.d[i] {
		l.d[i] = delay
	}
}

// Close computes the min-plus transitive closure (Floyd–Warshall) over
// the recorded wires: after it, At(s, d) is the min total wire delay of
// any path s -> d with at least one edge. Because every delay is
// positive the closure satisfies the triangle inequality
// At(s, d) <= At(s, u) + At(u, d), which is exactly what the windowed
// driver's inductive safety argument needs (DESIGN.md §7.5).
func (l *Lookahead) Close() {
	n := l.n
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			ik := l.d[i*n+k]
			if ik == sim.MaxTime {
				continue
			}
			for j := 0; j < n; j++ {
				if via := satAdd(ik, l.d[k*n+j]); via < l.d[i*n+j] {
					l.d[i*n+j] = via
				}
			}
		}
	}
}

// At returns the matrix entry for the ordered pair (src, dst).
func (l *Lookahead) At(src, dst int) sim.Time { return l.d[src*l.n+dst] }

// Min returns the smallest finite entry — the classic single global
// lock-step window width — or sim.MaxTime if no shard reaches another.
func (l *Lookahead) Min() sim.Time {
	m := sim.MaxTime
	for _, v := range l.d {
		if v < m {
			m = v
		}
	}
	return m
}

// satAdd adds two times, saturating at sim.MaxTime so "unreachable"
// plus anything stays unreachable instead of overflowing.
func satAdd(a, b sim.Time) sim.Time {
	if a == sim.MaxTime || b == sim.MaxTime || a > sim.MaxTime-b {
		return sim.MaxTime
	}
	return a + b
}

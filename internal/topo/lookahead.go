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

// assignWorkers maps each shard to one of `workers` worker slots with a
// deterministic longest-processing-time bin packing over the given
// weights. Builders call it with static expected loads (host count for
// a leaf shard, 1 for a switch-only shard). Heavier shards are placed
// first, each onto the currently lightest worker; every tie — equal
// weights, equal worker loads — breaks by lowest index, so the
// assignment is a pure function of (weights, workers), never of timing.
// Worker assignment only decides which goroutine executes a shard's
// window; it is invisible to simulated outcomes.
func assignWorkers(weights []uint64, workers int) []int {
	n := len(weights)
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	// Shard indices sorted by descending weight, index ascending on
	// ties (stable insertion sort: n is the switch count, tiny).
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && weights[order[j]] > weights[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	load := make([]uint64, workers)
	out := make([]int, n)
	for _, s := range order {
		w := 0
		for v := 1; v < workers; v++ {
			if load[v] < load[w] {
				w = v
			}
		}
		out[s] = w
		load[w] += weights[s]
	}
	return out
}

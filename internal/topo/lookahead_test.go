package topo

import (
	"math/rand"
	"testing"

	"ppt/internal/sim"
)

// bruteMinWalk computes, by repeated relaxation over the raw adjacency,
// the minimum total delay of any walk with at least one edge between
// every ordered pair (including i -> i cycles). With positive weights
// the minimum walk is a simple path (or simple cycle on the diagonal),
// so n relaxation rounds suffice. Independent of the Floyd–Warshall
// code under test.
func bruteMinWalk(n int, adj [][]sim.Time) [][]sim.Time {
	dist := make([][]sim.Time, n)
	for i := range dist {
		dist[i] = append([]sim.Time(nil), adj[i]...)
	}
	for step := 0; step < n; step++ {
		next := make([][]sim.Time, n)
		for i := range next {
			next[i] = append([]sim.Time(nil), dist[i]...)
			for j := 0; j < n; j++ {
				for k := 0; k < n; k++ {
					if dist[i][k] == sim.MaxTime || adj[k][j] == sim.MaxTime {
						continue
					}
					if v := dist[i][k] + adj[k][j]; v < next[i][j] {
						next[i][j] = v
					}
				}
			}
		}
		dist = next
	}
	return dist
}

// TestLookaheadBruteForce checks the closed matrix of random directed
// wire graphs against the independent brute-force walk minimum, and
// that the result satisfies the triangle inequality the windowed
// driver's safety induction relies on.
func TestLookaheadBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(7)
		adj := make([][]sim.Time, n)
		for i := range adj {
			adj[i] = make([]sim.Time, n)
			for j := range adj[i] {
				adj[i][j] = sim.MaxTime
			}
		}
		la := NewLookahead(n)
		wires := rng.Intn(3 * n)
		for w := 0; w < wires; w++ {
			src, dst := rng.Intn(n), rng.Intn(n)
			if src == dst {
				continue
			}
			d := sim.Time(1 + rng.Intn(1000))
			la.AddWire(src, dst, d)
			if d < adj[src][dst] {
				adj[src][dst] = d
			}
		}
		la.Close()
		want := bruteMinWalk(n, adj)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if got := la.At(i, j); got != want[i][j] {
					t.Fatalf("trial %d: At(%d,%d) = %v, brute force = %v", trial, i, j, got, want[i][j])
				}
			}
		}
		for i := 0; i < n; i++ {
			for k := 0; k < n; k++ {
				for j := 0; j < n; j++ {
					if via := satAdd(la.At(i, k), la.At(k, j)); la.At(i, j) > via {
						t.Fatalf("trial %d: triangle violated: At(%d,%d)=%v > At(%d,%d)+At(%d,%d)=%v",
							trial, i, j, la.At(i, j), i, k, k, j, via)
					}
				}
			}
		}
	}
}

// TestLeafSpineLookahead pins the matrix a built fabric carries:
// adjacent pairs (leaf<->spine) at one wire delay, distant pairs
// (leaf<->leaf, spine<->spine) and every self-cycle at two, the global
// minimum equal to the built link delay, and each entry no larger than
// the true minimum path delay computed brute-force from the wire set
// the builder installs.
func TestLeafSpineLookahead(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		leaves, spines, perLeaf := 1+rng.Intn(5), 1+rng.Intn(3), 1+rng.Intn(4)
		delay := sim.Time(1+rng.Intn(20)) * sim.Microsecond
		net := LeafSpine(leaves, spines, perLeaf, Config{LinkDelay: delay, Shards: 1 + rng.Intn(8)})
		part := net.Part
		if part == nil || part.Lookahead == nil {
			t.Fatal("partitioned LeafSpine without a lookahead matrix")
		}
		la := part.Lookahead
		n := leaves + spines
		adj := make([][]sim.Time, n)
		for i := range adj {
			adj[i] = make([]sim.Time, n)
			for j := range adj[i] {
				adj[i][j] = sim.MaxTime
			}
		}
		for li := 0; li < leaves; li++ {
			for si := 0; si < spines; si++ {
				adj[li][leaves+si] = delay
				adj[leaves+si][li] = delay
			}
		}
		want := bruteMinWalk(n, adj)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if got := la.At(i, j); got != want[i][j] {
					t.Fatalf("leaves=%d spines=%d: At(%d,%d) = %v, want %v", leaves, spines, i, j, got, want[i][j])
				}
				if got := la.At(i, j); got > want[i][j] {
					t.Fatalf("matrix entry above true min path delay")
				}
			}
		}
		if la.Min() != net.Cfg.LinkDelay {
			t.Fatalf("matrix min %v != link delay %v", la.Min(), net.Cfg.LinkDelay)
		}
		if spines > 0 {
			if got := la.At(0, leaves); got != delay {
				t.Fatalf("leaf->spine = %v, want %v", got, delay)
			}
			if got := la.At(0, 0); got != 2*delay {
				t.Fatalf("self-cycle = %v, want %v", got, 2*delay)
			}
		}
	}
}

package transport_test

import (
	"math/rand"
	"testing"

	"ppt/internal/netsim"
	"ppt/internal/sim"
	"ppt/internal/topo"
	"ppt/internal/transport"
	"ppt/internal/transport/dctcp"
)

// lazySource yields a fixed flow schedule one at a time, tracking how
// far the run actually pulled.
type lazySource struct {
	flows  []transport.SimpleFlow
	pulled int
}

func (s *lazySource) Next() (transport.SimpleFlow, bool) {
	if s.pulled >= len(s.flows) {
		return transport.SimpleFlow{}, false
	}
	f := s.flows[s.pulled]
	s.pulled++
	return f, true
}

func randomFlows(n, hosts int, seed int64) []transport.SimpleFlow {
	rng := rand.New(rand.NewSource(seed))
	flows := make([]transport.SimpleFlow, n)
	at := sim.Time(0)
	for i := range flows {
		at += sim.Time(rng.Int63n(int64(20 * sim.Microsecond)))
		src := rng.Intn(hosts)
		dst := rng.Intn(hosts - 1)
		if dst >= src {
			dst++
		}
		flows[i] = transport.SimpleFlow{
			ID: uint32(i + 1), Src: src, Dst: dst,
			Size:   rng.Int63n(400_000) + 1,
			Arrive: at,
		}
	}
	return flows
}

// TestRunSourceMatchesRun is the transport-level streamed-vs-
// materialized differential: the same workload through RunSource and
// through Run must produce identical summaries, field for field.
func TestRunSourceMatchesRun(t *testing.T) {
	flows := randomFlows(200, 4, 5)
	envA, envB := newTruncEnv(), newTruncEnv()
	want := transport.Run(envA, dctcp.Proto{}, flows, transport.RunConfig{})
	src := &lazySource{flows: flows}
	got := transport.RunSource(envB, dctcp.Proto{}, src, transport.RunConfig{})
	if got != want {
		t.Fatalf("streamed summary %+v != materialized %+v", got, want)
	}
	if src.pulled != len(flows) {
		t.Fatalf("run pulled %d of %d flows", src.pulled, len(flows))
	}
}

// TestRunSourceSpilled runs the streamed path with a spilling collector
// and checks the summary still matches the fully materialized,
// in-memory run — the end-to-end bounded-memory pipeline.
func TestRunSourceSpilled(t *testing.T) {
	flows := randomFlows(300, 4, 9)
	envA, envB := newTruncEnv(), newTruncEnv()
	want := transport.Run(envA, dctcp.Proto{}, flows, transport.RunConfig{})
	if err := envB.Collector.SetSpill(32); err != nil {
		t.Fatal(err)
	}
	defer envB.Collector.Close()
	got := transport.RunSource(envB, dctcp.Proto{}, &lazySource{flows: flows}, transport.RunConfig{})
	if got != want {
		t.Fatalf("spilled streamed summary %+v != materialized %+v", got, want)
	}
	if peak := envB.Collector.ResidentPeak(); peak > 32 {
		t.Fatalf("resident peak %d exceeds chunk", peak)
	}
	if envB.Collector.SpilledRecords() == 0 {
		t.Fatal("nothing spilled")
	}
}

// TestRunSourceTruncationDrainsSource pins Unfinished accounting for
// streamed runs: flows never pulled from the source still count.
func TestRunSourceTruncationDrainsSource(t *testing.T) {
	env := newTruncEnv()
	src := &lazySource{flows: []transport.SimpleFlow{
		{ID: 1, Src: 0, Dst: 1, Size: 2_000_000, Arrive: 0},
		{ID: 2, Src: 2, Dst: 3, Size: 1000, Arrive: 50 * sim.Millisecond},
		{ID: 3, Src: 1, Dst: 2, Size: 1000, Arrive: 60 * sim.Millisecond},
	}}
	sum := transport.RunSource(env, dctcp.Proto{}, src, transport.RunConfig{Deadline: 100 * sim.Microsecond})
	if !sum.Truncated || sum.Unfinished != 3 {
		t.Fatalf("summary = %+v, want Truncated with 3 unfinished", sum)
	}
}

// TestRunSourceRejectsUnsorted pins the decreasing-arrival guard.
func TestRunSourceRejectsUnsorted(t *testing.T) {
	env := newTruncEnv()
	defer func() {
		if recover() == nil {
			t.Fatal("decreasing-arrival source accepted")
		}
	}()
	transport.RunSource(env, dctcp.Proto{}, &lazySource{flows: []transport.SimpleFlow{
		{ID: 1, Src: 0, Dst: 1, Size: 1000, Arrive: 10 * sim.Microsecond},
		{ID: 2, Src: 2, Dst: 3, Size: 1000, Arrive: 5 * sim.Microsecond},
	}}, transport.RunConfig{})
}

// TestRunSourceShardedMatches runs the streamed path on a partitioned
// fabric at several worker counts: the windowed engine's contract is
// that worker count is invisible to simulated outcomes, so every
// shard setting must produce the byte-identical summary: the
// materialized run of the same workload at one worker.
func TestRunSourceShardedMatches(t *testing.T) {
	build := func(shards int) *transport.Env {
		net := topo.LeafSpine(2, 2, 4, topo.Config{
			HostRate:     10 * netsim.Gbps,
			CoreRate:     40 * netsim.Gbps,
			LinkDelay:    5 * sim.Microsecond,
			ECNHighK:     30_000,
			ECNLowK:      24_000,
			SharedBuffer: 1 << 20,
			Shards:       shards,
		})
		return transport.NewEnv(net)
	}
	flows := randomFlows(150, 8, 21)
	envRef := build(1)
	want := transport.Run(envRef, dctcp.Proto{}, flows, transport.RunConfig{})
	if want.Truncated || want.Flows != 150 {
		t.Fatalf("reference run did not complete: %+v", want)
	}
	for _, shards := range []int{1, 2, 4} {
		env := build(shards)
		got := transport.RunSource(env, dctcp.Proto{}, &lazySource{flows: flows}, transport.RunConfig{})
		if got != want {
			t.Fatalf("shards=%d streamed summary %+v != materialized shards=1 %+v", shards, got, want)
		}
	}
}

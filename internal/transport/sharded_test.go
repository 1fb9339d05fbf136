package transport_test

import (
	"testing"

	"ppt/internal/netsim"
	"ppt/internal/sim"
	"ppt/internal/topo"
	"ppt/internal/transport"
	"ppt/internal/transport/dctcp"
)

// A shard whose only pending work is a departure one of its cross ports
// owes — no event stands for it — is not skipped: it runs its window,
// the window's end starts the departure, and the barrier publishes it.
func TestShardedRunsShardWithOnlyOwedDeparture(t *testing.T) {
	net := topo.LeafSpine(2, 1, 1, topo.Config{Shards: 1})
	var up *netsim.Port
	for _, p := range net.Switches[0].Ports() {
		if p.Name() == "leaf0-spine0" {
			up = p
		}
	}
	// The first packet starts inline; the second is owed at the first's
	// serialize-complete instant, and leaf 0's scheduler is empty.
	for i := uint32(0); i < 2; i++ {
		up.Enqueue(netsim.DataPacket(i, 0, 1, 0, 1000, 0))
	}
	if n := net.Part.Scheds[0].Pending(); n != 0 {
		t.Fatalf("leaf 0 has %d pending events, want none", n)
	}
	env := transport.NewEnv(net)
	transport.RunSource(env, dctcp.Proto{}, &lazySource{}, transport.RunConfig{})
	st := env.ShardStats
	// One round: leaf 0 runs, the spine and leaf 1 have nothing to do.
	if st.Rounds != 1 || st.WindowsRun != 1 || st.WindowsSkipped != 2 {
		t.Fatalf("rounds %d, windows run %d, skipped %d; want 1, 1, 2", st.Rounds, st.WindowsRun, st.WindowsSkipped)
	}
	if st.CrossPackets != 2 {
		t.Fatalf("published %d cross packets, want both departures", st.CrossPackets)
	}
}

// Two flows into one host from two leaves put a packet on the spine at
// the same instant, one from each leaf's shard. The windowed engine
// delivers same-instant cross-shard arrivals in (due, srcShard, FIFO)
// order (DESIGN.md §7.3), so leaf 0's packet is queued toward host 2
// first and flow 0 finishes first. The goldens and the shard-count
// differentials compare runs that share this order, so only a test
// like this one sees it change.
func TestCrossShardTieOrder(t *testing.T) {
	net := topo.LeafSpine(3, 1, 1, topo.Config{Shards: 1})
	env := transport.NewEnv(net)
	transport.Run(env, dctcp.Proto{}, []transport.SimpleFlow{
		{ID: 0, Src: 0, Dst: 2, Size: 1000},
		{ID: 1, Src: 1, Dst: 2, Size: 1000},
	}, transport.RunConfig{})
	want := []struct {
		id  uint32
		end sim.Time
	}{
		{0, 4_595_840 * sim.Picosecond},
		{1, 4_808_640 * sim.Picosecond},
	}
	recs := env.Collector.Records()
	if len(recs) != len(want) {
		t.Fatalf("%d flows completed, want %d", len(recs), len(want))
	}
	for i, w := range want {
		if r := recs[i]; r.FlowID != w.id || r.End != w.end {
			t.Errorf("completion %d: flow %d at %v, want flow %d at %v", i, r.FlowID, r.End, w.id, w.end)
		}
	}
}

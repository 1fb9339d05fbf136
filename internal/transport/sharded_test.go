package transport_test

import (
	"testing"

	"ppt/internal/netsim"
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

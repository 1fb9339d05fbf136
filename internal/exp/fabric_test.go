package exp

import (
	"testing"

	"ppt/internal/netsim"
	"ppt/internal/sim"
)

// The paper's fabric parameters are pinned here, on the fabrics the
// experiments build (topologies() and dumbbellFabric): each constant has
// one home, and these tests read it from there.

// TestTestbedFabric checks Table 3: 15 hosts on one switch, a base RTT
// near the paper's 80µs, a ~100KB BDP at 10G, and K_H/K_L = 100/80KB.
func TestTestbedFabric(t *testing.T) {
	net := topologies()["testbed"].build()
	if len(net.Hosts) != 15 || len(net.Switches) != 1 {
		t.Fatalf("hosts=%d switches=%d", len(net.Hosts), len(net.Switches))
	}
	if net.BaseRTT < 80*sim.Microsecond || net.BaseRTT > 85*sim.Microsecond {
		t.Fatalf("base RTT = %v", net.BaseRTT)
	}
	if bdp := net.BDP(); bdp < 95_000 || bdp > 110_000 {
		t.Fatalf("BDP = %d", bdp)
	}
	pc := net.Switches[0].Port(0).Config()
	if pc.ECNHighK != 100_000 || pc.ECNLowK != 80_000 {
		t.Fatalf("ECN thresholds = %d/%d", pc.ECNHighK, pc.ECNLowK)
	}
}

// TestSimFullFabricShape checks §6.2's full fabric: 144 servers under 9
// leaves and 4 spines, each leaf with 16 downlinks and 4 uplinks, each
// spine with 9 downlinks.
func TestSimFullFabricShape(t *testing.T) {
	net := topologies()["sim-full"].build()
	if len(net.Hosts) != 144 || len(net.Switches) != 13 {
		t.Fatalf("hosts=%d switches=%d", len(net.Hosts), len(net.Switches))
	}
	if got := len(net.Switches[0].Ports()); got != 20 {
		t.Fatalf("leaf ports = %d", got)
	}
	if got := len(net.Switches[9].Ports()); got != 9 {
		t.Fatalf("spine ports = %d", got)
	}
}

// TestFabricBottleneckRates checks each fabric's slowest link, and that
// the 100/400G fabric of Fig 22 has the larger BDP.
func TestFabricBottleneckRates(t *testing.T) {
	fabs := topologies()
	fabs["dumbbell"] = dumbbellFabric(2, 120_000)
	bdp := map[string]int{}
	for name, want := range map[string]netsim.Rate{
		"testbed":            10 * netsim.Gbps,
		"sim":                40 * netsim.Gbps,
		"sim-full":           40 * netsim.Gbps,
		"fast":               100 * netsim.Gbps,
		"non-oversubscribed": 10 * netsim.Gbps,
		"dumbbell":           40 * netsim.Gbps,
	} {
		net := fabs[name].build()
		if net.BottleneckRate != want {
			t.Errorf("%s: bottleneck = %v, want %v", name, net.BottleneckRate, want)
		}
		bdp[name] = net.BDP()
	}
	if bdp["fast"] <= bdp["sim"] {
		t.Errorf("fast BDP %d not above sim BDP %d", bdp["fast"], bdp["sim"])
	}
}

// TestDumbbellFabric checks the Fig 1/20/28/29 microbenchmark: two
// senders and one receiver on a single 40G switch.
func TestDumbbellFabric(t *testing.T) {
	net := dumbbellFabric(2, 120_000).build()
	if len(net.Hosts) != 3 || len(net.Switches) != 1 {
		t.Fatalf("hosts=%d switches=%d", len(net.Hosts), len(net.Switches))
	}
	if r := net.Hosts[0].Rate(); r != 40*netsim.Gbps {
		t.Fatalf("host rate = %v", r)
	}
}

package topo

import (
	"strings"
	"testing"

	"ppt/internal/netsim"
	"ppt/internal/sim"
)

// deliverProbe sends one data packet between two hosts of a
// single-scheduler fabric and returns the one-way latency observed.
// Partitioned fabrics have no single scheduler; their probes run through
// the windowed driver (leafspine_test.go).
func deliverProbe(t *testing.T, net *Network, src, dst int) sim.Time {
	t.Helper()
	var arrived sim.Time
	h := net.Hosts[dst]
	h.Bind(12345, true, probeEP(func(p *netsim.Packet) { arrived = net.Sched.Now() }))
	defer h.Unbind(12345, true)
	net.Hosts[src].Send(netsim.DataPacket(12345, int32(src), int32(dst), 0, netsim.MSS, 0))
	net.Sched.Run()
	if arrived == 0 {
		t.Fatalf("probe %d->%d never arrived", src, dst)
	}
	return arrived
}

type probeEP func(*netsim.Packet)

func (f probeEP) Handle(p *netsim.Packet) { f(p) }

func TestStarLatencyFirstProbe(t *testing.T) {
	net := Star(4, Config{})
	lat := deliverProbe(t, net, 0, 1)
	want := 40*sim.Microsecond + 2*(10*netsim.Gbps).TxTime(netsim.MSS+netsim.HeaderBytes)
	if lat != want {
		t.Fatalf("latency = %v, want %v", lat, want)
	}
}

// TestFastSimProfile checks LeafSpine on the 100/400G rates of Fig 22:
// the host link is the bottleneck, and the BDP exceeds that of the
// 40/100G fabric of the same shape.
func TestFastSimProfile(t *testing.T) {
	net := LeafSpine(9, 4, 16, Config{HostRate: 100 * netsim.Gbps, CoreRate: 400 * netsim.Gbps})
	if net.BottleneckRate != 100*netsim.Gbps {
		t.Fatalf("bottleneck = %v", net.BottleneckRate)
	}
	slow := LeafSpine(9, 4, 16, Config{HostRate: 40 * netsim.Gbps, CoreRate: 100 * netsim.Gbps})
	if net.BDP() <= slow.BDP() {
		t.Fatalf("fast BDP %d not above 40/100G BDP %d", net.BDP(), slow.BDP())
	}
}

// TestNonOversubscribedProfile checks LeafSpine on the 10/40G rates of
// appendix E: the host link is the bottleneck, and every leaf's uplink
// capacity equals its downlink capacity (1:1).
func TestNonOversubscribedProfile(t *testing.T) {
	net := LeafSpine(9, 4, 16, Config{HostRate: 10 * netsim.Gbps, CoreRate: 40 * netsim.Gbps})
	if net.BottleneckRate != 10*netsim.Gbps {
		t.Fatalf("bottleneck = %v", net.BottleneckRate)
	}
	for _, leaf := range net.Switches[:9] {
		var down, up netsim.Rate
		for _, p := range leaf.Ports() {
			if strings.Contains(p.Name(), "-spine") {
				up += p.Config().Rate
			} else {
				down += p.Config().Rate
			}
		}
		if down == 0 || up != down {
			t.Fatalf("%s: downlink %v, uplink %v", leaf.Name(), down, up)
		}
	}
}

func TestSwitchPortsEnumeration(t *testing.T) {
	net := LeafSpine(2, 2, 2, Config{})
	// leaves: 2×(2 down + 2 up) = 8; spines: 2×2 down = 4.
	if got := len(net.SwitchPorts()); got != 12 {
		t.Fatalf("switch ports = %d", got)
	}
}

func TestNICMarksECN(t *testing.T) {
	// When the host's own line rate is the first bottleneck, the queue
	// forms at the NIC; it must mark there or a sender facing an
	// equal-rate path would grow its window without bound.
	net := Star(15, Config{HostRate: 10 * netsim.Gbps, ECNHighK: 100_000, ECNLowK: 80_000})
	nic := net.Hosts[0].NIC().Config()
	if nic.ECNHighK != net.Cfg.ECNHighK || nic.ECNLowK != net.Cfg.ECNLowK {
		t.Fatalf("NIC ECN thresholds = %d/%d, want %d/%d",
			nic.ECNHighK, nic.ECNLowK, net.Cfg.ECNHighK, net.Cfg.ECNLowK)
	}
}

func TestLossProbPassthrough(t *testing.T) {
	net := Star(3, Config{LossProb: 0.01})
	for _, p := range net.SwitchPorts() {
		if p.Config().LossProb != 0.01 {
			t.Fatalf("switch port LossProb = %v", p.Config().LossProb)
		}
	}
}

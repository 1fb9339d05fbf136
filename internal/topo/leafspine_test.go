package topo_test

import (
	"testing"

	"ppt/internal/netsim"
	"ppt/internal/sim"
	"ppt/internal/topo"
	"ppt/internal/transport"
)

// probe is a one-packet transport: the sender emits one MSS of data and
// the flow completes when it arrives, so a lone flow's FCT is its path's
// one-way latency.
type probe struct{}

func (probe) Name() string { return "probe" }

func (probe) StartReceiver(env *transport.Env, f *transport.Flow) {
	f.Dst.Bind(f.ID, true, arrival{env, f})
}

func (probe) StartSender(_ *transport.Env, f *transport.Flow) {
	f.Src.Send(f.Src.Data(f.ID, f.Dst.ID(), 0, netsim.MSS, 0))
}

type arrival struct {
	env *transport.Env
	f   *transport.Flow
}

func (a arrival) Handle(*netsim.Packet) { a.env.Complete(a.f) }

// runProbes starts one probe flow per (src, dst) pair at time zero on
// the windowed driver and returns each pair's FCT.
func runProbes(t *testing.T, net *topo.Network, pairs [][2]int) map[[2]int]sim.Time {
	t.Helper()
	env := transport.NewEnv(net)
	flows := make([]transport.SimpleFlow, len(pairs))
	for i, p := range pairs {
		flows[i] = transport.SimpleFlow{ID: uint32(i + 1), Src: p[0], Dst: p[1], Size: netsim.MSS}
	}
	if sum := transport.Run(env, probe{}, flows, transport.RunConfig{}); sum.Truncated {
		t.Fatalf("%d of %d probes never arrived", sum.Unfinished, len(pairs))
	}
	fct := make(map[[2]int]sim.Time, len(pairs))
	for _, r := range env.Collector.Records() {
		fct[pairs[r.FlowID-1]] = r.FCT()
	}
	return fct
}

func TestLeafSpineCrossLeafConnectivity(t *testing.T) {
	// host 0 (leaf 0) to host 5 (leaf 2).
	cross := runProbes(t, topo.LeafSpine(3, 2, 2, topo.Config{}), [][2]int{{0, 5}})[[2]int{0, 5}]
	if cross <= 0 {
		t.Fatal("no latency")
	}
	// Same-leaf path must be shorter than cross-leaf.
	same := runProbes(t, topo.LeafSpine(3, 2, 2, topo.Config{}), [][2]int{{0, 1}})[[2]int{0, 1}]
	if same >= cross {
		t.Fatalf("same-leaf %v not faster than cross-leaf %v", same, cross)
	}
}

func TestLeafSpineAllPairs(t *testing.T) {
	net := topo.LeafSpine(3, 2, 2, topo.Config{})
	n := len(net.Hosts)
	var pairs [][2]int
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s != d {
				pairs = append(pairs, [2]int{s, d})
			}
		}
	}
	if got := runProbes(t, net, pairs); len(got) != n*(n-1) {
		t.Fatalf("delivered %d of %d pairs", len(got), n*(n-1))
	}
}

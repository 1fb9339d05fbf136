package netsim

import "fmt"

// Switch is an output-queued device: arriving packets are immediately
// placed on the egress port chosen by the forwarding table, with ECMP
// hashing across equal-cost ports.
type Switch struct {
	name  string
	salt  uint32
	ports []*Port
	// routes[dst] lists the candidate egress port indexes toward host
	// dst. Host ids are dense (0..N-1), so a slice indexed by id replaces
	// a per-hop map lookup.
	routes [][]int
}

// NewSwitch creates a switch with no ports; topo builders attach ports
// and install routes.
func NewSwitch(name string, salt uint32) *Switch {
	return &Switch{name: name, salt: salt}
}

// Name implements Device.
func (sw *Switch) Name() string { return sw.name }

// AddPort attaches an egress port and returns its index.
func (sw *Switch) AddPort(p *Port) int {
	sw.ports = append(sw.ports, p)
	return len(sw.ports) - 1
}

// Port returns the i-th egress port.
func (sw *Switch) Port(i int) *Port { return sw.ports[i] }

// Ports returns all egress ports.
func (sw *Switch) Ports() []*Port { return sw.ports }

// AddRoute appends candidate egress ports for a destination host.
func (sw *Switch) AddRoute(dst int32, portIdx ...int) {
	for int(dst) >= len(sw.routes) {
		sw.routes = append(sw.routes, nil)
	}
	sw.routes[dst] = append(sw.routes[dst], portIdx...)
}

// Receive implements Device: route, ECMP-hash, enqueue.
func (sw *Switch) Receive(pkt *Packet) {
	var cands []int
	if uint32(pkt.Dst) < uint32(len(sw.routes)) {
		cands = sw.routes[pkt.Dst]
	}
	if len(cands) == 0 {
		panic(fmt.Sprintf("netsim: switch %s has no route to host %d", sw.name, pkt.Dst))
	}
	pkt.Hops++
	idx := 0
	if len(cands) > 1 {
		idx = int(ecmpHash(pkt.FlowID, sw.salt) % uint32(len(cands)))
	}
	sw.ports[cands[idx]].Enqueue(pkt)
}

// ecmpHash spreads flows over equal-cost paths. The low-loop bit is not
// hashed: a flow's HCP and LCP packets take the same path, as they would
// with identical 5-tuples in a real fabric.
func ecmpHash(flow, salt uint32) uint32 {
	x := flow*2654435761 + salt
	x ^= x >> 16
	x *= 2246822519
	x ^= x >> 13
	return x
}

// Package topo builds the two fabric shapes the paper evaluates on: a
// single-switch star (Star) — the CloudLab-style testbed, and the
// 2-sender dumbbell of the link-utilization and buffer microbenchmarks —
// and a two-tier leaf–spine (LeafSpine), the simulation fabric with its
// 40/100G, 100/400G and non-oversubscribed 10/40G variants. The paper's
// parameters for each fabric live in one place, internal/exp's fabric
// table.
package topo

import (
	"fmt"

	"ppt/internal/netsim"
	"ppt/internal/sim"
)

// Config parameterizes a fabric build. Zero values get sensible defaults
// from each builder.
type Config struct {
	HostRate netsim.Rate // edge link speed
	CoreRate netsim.Rate // leaf–spine link speed

	// LinkDelay is the one-way propagation delay of every wire.
	LinkDelay sim.Time

	// ECNHighK / ECNLowK are switch marking thresholds in bytes for the
	// high (P0–P3) and low (P4–P7) classes. Zero disables marking.
	ECNHighK int64
	ECNLowK  int64

	// PerPortBuffer caps each switch port's occupancy (simulation
	// profile: 120KB/port). Zero means uncapped per port.
	PerPortBuffer int64

	// SharedBuffer, when non-zero, creates one shared pool per switch
	// (testbed profile: 50MB for the whole S4048).
	SharedBuffer int64

	// TrimToHeader, DroppableThresh, LowClassCap, EnableINT and
	// DynamicLowThreshold pass through to every switch port (see
	// netsim.PortConfig).
	TrimToHeader        bool
	DroppableThresh     int64
	LowClassCap         int64
	EnableINT           bool
	DynamicLowThreshold bool

	// LossProb injects random per-packet data loss at every switch
	// egress (failure injection; 0 in all paper experiments).
	LossProb float64

	// Shards caps the worker goroutines of the conservative
	// time-windowed parallel engine (DESIGN.md §7.3) on a LeafSpine
	// fabric, which is always partitioned: one logical shard per switch
	// (leaf shards own their hosts), each with its own scheduler and
	// packet pool. The logical partition — and therefore every simulated
	// outcome — is topology-determined and identical for every value;
	// Shards <= 1 runs one worker. Star ignores this: a single switch has
	// no useful partition.
	Shards int
}

// Partition describes a sharded fabric: the per-shard schedulers and
// packet pools, the cross-shard mailboxes, and the host-to-shard map
// the windowed run driver needs. Shard indices are topology-determined:
// leaf i (plus its hosts) is shard i, spine j is shard leaves+j. The
// partition binds no shard to a goroutine: the windowed driver's
// workers claim each round's runnable shards as they come free
// (transport/sharded.go, DESIGN.md §7.5).
type Partition struct {
	// N is the logical shard count (leaves + spines).
	N int
	// Workers caps the goroutines that run the shards each window:
	// min(max(Config.Shards, 1), N). Worker count never affects outcomes
	// — shards only interact at barriers, in canonical order.
	Workers int
	// Lookahead is the per-shard-pair lookahead matrix (closed under
	// min-plus composition); see the Lookahead type. Derived from the
	// same wires that get SetCross, so the two views always agree.
	Lookahead *Lookahead

	// Per shard: the scheduler, the packet pool, and the outbox and inbox
	// of its cross wires (netsim/cross.go), one per shard pair direction.
	Scheds   []*sim.Scheduler
	Pools    []*netsim.PacketPool
	Outboxes []*netsim.Outbox
	Inboxes  []*netsim.Inbox
	// HostShard maps host id to its ToR's shard.
	HostShard []int
}

// Network is a built fabric: hosts wired through switches, sharing one
// scheduler (Star) or, partitioned, one scheduler per shard (LeafSpine).
type Network struct {
	// Sched is the fabric scheduler of a Star build; nil when the fabric
	// is partitioned (use Part.Scheds and the windowed driver).
	Sched    *sim.Scheduler
	Hosts    []*netsim.Host
	Switches []*netsim.Switch
	Cfg      Config

	// Part is non-nil for a partitioned (sharded) fabric: every
	// LeafSpine build.
	Part *Partition

	// Pool is the run-scoped packet freelist shared by every host and
	// port of a Star fabric. One pool per Network keeps runs
	// deterministic and race-free under the experiment worker pool.
	// Partitioned fabrics use Part.Pools (one per shard) instead and
	// leave this nil.
	Pool *netsim.PacketPool

	// BaseRTT is the zero-load round-trip time between the two most
	// distant hosts, including per-hop serialization of one MSS packet.
	BaseRTT sim.Time

	// BottleneckRate is the slowest link a flow can traverse.
	BottleneckRate netsim.Rate
}

// BDP returns the bandwidth-delay product of the fabric in bytes.
func (n *Network) BDP() int {
	return netsim.BDPBytes(n.BottleneckRate, n.BaseRTT)
}

// Executed reports the total scheduler events run on this fabric,
// summed over shards when partitioned.
func (n *Network) Executed() uint64 {
	if n.Part == nil {
		return n.Sched.Executed
	}
	var total uint64
	for _, s := range n.Part.Scheds {
		total += s.Executed
	}
	return total
}

// SwitchPorts returns every switch egress port (for buffer sampling).
func (n *Network) SwitchPorts() []*netsim.Port {
	var out []*netsim.Port
	for _, sw := range n.Switches {
		out = append(out, sw.Ports()...)
	}
	return out
}

// SettleTx observes every port through limit (netsim.Port.SettleTx):
// departures owed by then start, and deferred transmit accounting with
// serialize-complete time <= limit applies. Run drivers call it once at
// end of run, before reading Tx counters, so the counters cover exactly
// the serializations that physically completed within the run.
// Partitioned fabrics pass per-shard limits through the callback (each
// port settles at its own shard's horizon); Star's single-scheduler
// driver returns one fabric-wide limit.
func (n *Network) SettleTx(limit func(*sim.Scheduler) sim.Time) {
	for _, p := range n.ports() {
		p.SettleTx(limit(p.Scheduler()))
	}
}

// ports returns every egress port: host NICs, then switch ports.
func (n *Network) ports() []*netsim.Port {
	out := make([]*netsim.Port, 0, len(n.Hosts))
	for _, h := range n.Hosts {
		out = append(out, h.NIC())
	}
	return append(out, n.SwitchPorts()...)
}

// Audit checks packet and buffer conservation on every port and shared
// pool after the run's final settle (netsim.Port.Audit,
// netsim.BufferPool.Audit), returning the first violation.
func (n *Network) Audit() error {
	pools := map[*netsim.BufferPool]bool{}
	for _, p := range n.ports() {
		if err := p.Audit(); err != nil {
			return err
		}
		if b := p.Pool(); b != nil && !pools[b] {
			pools[b] = true
			if err := b.Audit(); err != nil {
				return err
			}
		}
	}
	return nil
}

// switchPortCfg derives the netsim.PortConfig for a switch egress.
func (c Config) switchPortCfg(rate netsim.Rate) netsim.PortConfig {
	return netsim.PortConfig{
		Rate:                rate,
		Delay:               c.LinkDelay,
		ECNHighK:            c.ECNHighK,
		ECNLowK:             c.ECNLowK,
		QueueCap:            c.PerPortBuffer,
		TrimToHeader:        c.TrimToHeader,
		DroppableThresh:     c.DroppableThresh,
		LowClassCap:         c.LowClassCap,
		EnableINT:           c.EnableINT,
		DynamicLowThreshold: c.DynamicLowThreshold,
		LossProb:            c.LossProb,
	}
}

// nicCfg configures host egress. NICs mark ECN at the same thresholds
// as switches: when the first bottleneck is the host's own line rate,
// the queue forms in the host (where a real kernel's qdisc/TSQ applies
// backpressure); without marking there, a sender facing an equal-rate
// path would inflate its window without bound.
func (c Config) nicCfg(rate netsim.Rate) netsim.PortConfig {
	return netsim.PortConfig{
		Rate:      rate,
		Delay:     c.LinkDelay,
		EnableINT: c.EnableINT,
		ECNHighK:  c.ECNHighK,
		ECNLowK:   c.ECNLowK,
	}
}

// Star builds n hosts hanging off a single switch — the paper's testbed
// shape. Defaults: 10G links, 20µs wire delay (80µs base RTT), 50MB
// shared buffer.
func Star(n int, cfg Config) *Network {
	if cfg.HostRate == 0 {
		cfg.HostRate = 10 * netsim.Gbps
	}
	if cfg.LinkDelay == 0 {
		cfg.LinkDelay = 20 * sim.Microsecond
	}
	s := sim.NewScheduler()
	net := &Network{Sched: s, Cfg: cfg, BottleneckRate: cfg.HostRate, Pool: netsim.NewPacketPool()}
	sw := netsim.NewSwitch("sw0", 1)
	net.Switches = []*netsim.Switch{sw}
	var pool *netsim.BufferPool
	if cfg.SharedBuffer > 0 {
		pool = netsim.NewBufferPool(cfg.SharedBuffer)
	}
	for i := 0; i < n; i++ {
		h := netsim.NewHost(int32(i), s)
		nic := netsim.NewPort(fmt.Sprintf("h%d-nic", i), s, cfg.nicCfg(cfg.HostRate), sw, nil)
		h.SetNIC(nic)
		down := netsim.NewPort(fmt.Sprintf("sw0-p%d", i), s, cfg.switchPortCfg(cfg.HostRate), h, pool)
		sw.AddRoute(int32(i), sw.AddPort(down))
		net.Hosts = append(net.Hosts, h)
		// One packet pool for every host and port closes the
		// Get-at-source / Free-at-sink cycle.
		h.SetPool(net.Pool)
		nic.SetPacketPool(net.Pool)
		down.SetPacketPool(net.Pool)
	}
	// host -> switch -> host: 2 wires each way plus serialization.
	net.BaseRTT = 4*cfg.LinkDelay + 2*cfg.HostRate.TxTime(netsim.MSS+netsim.HeaderBytes) + 2*cfg.HostRate.TxTime(netsim.HeaderBytes)
	return net
}

// LeafSpine builds hostsPerLeaf×leaves hosts under `leaves` leaf switches
// fully meshed to `spines` spine switches. The paper's oversubscribed
// fabric is LeafSpine(9, 4, 16) at 40/100G: 16×40G = 640G of host
// bandwidth vs 4×100G = 400G of uplink per leaf († 1.4:1 hidden in the
// paper's "144 servers, 9 leaf, 4 spine" with 40/100G links). Defaults:
// 40G/100G, 1µs wires, 120KB per-port buffer.
func LeafSpine(leaves, spines, hostsPerLeaf int, cfg Config) *Network {
	if cfg.HostRate == 0 {
		cfg.HostRate = 40 * netsim.Gbps
	}
	if cfg.CoreRate == 0 {
		cfg.CoreRate = 100 * netsim.Gbps
	}
	if cfg.LinkDelay == 0 {
		cfg.LinkDelay = 1 * sim.Microsecond
	}
	net := &Network{Cfg: cfg, BottleneckRate: cfg.HostRate}
	if cfg.CoreRate < cfg.HostRate {
		net.BottleneckRate = cfg.CoreRate
	}

	// The partition: leaf i and its hosts form shard i, spine j forms
	// shard leaves+j. The only cross-shard wires are leaf<->spine (a
	// host's NIC peers with its own leaf), so the smallest lookahead
	// entry is exactly LinkDelay.
	n := leaves + spines
	part := &Partition{
		N:         n,
		Workers:   min(max(cfg.Shards, 1), n),
		Scheds:    make([]*sim.Scheduler, n),
		Pools:     make([]*netsim.PacketPool, n),
		Outboxes:  make([]*netsim.Outbox, n),
		Inboxes:   make([]*netsim.Inbox, n),
		HostShard: make([]int, leaves*hostsPerLeaf),
	}
	for i := 0; i < n; i++ {
		part.Scheds[i] = sim.NewScheduler()
		part.Pools[i] = netsim.NewPacketPool()
		part.Outboxes[i] = netsim.NewOutbox(i)
		part.Inboxes[i] = netsim.NewInbox(part.Scheds[i])
	}
	// Per-pair lookahead: one directed wire per leaf<->spine link at
	// LinkDelay, closed under min-plus so distant pairs (leaf->leaf via a
	// spine) get their true 2×LinkDelay bound instead of the global
	// minimum.
	la := NewLookahead(n)
	for li := 0; li < leaves; li++ {
		for si := 0; si < spines; si++ {
			la.AddWire(li, leaves+si, cfg.LinkDelay)
			la.AddWire(leaves+si, li, cfg.LinkDelay)
		}
	}
	la.Close()
	part.Lookahead = la
	net.Part = part

	leafSW := make([]*netsim.Switch, leaves)
	spineSW := make([]*netsim.Switch, spines)
	for i := range leafSW {
		leafSW[i] = netsim.NewSwitch(fmt.Sprintf("leaf%d", i), uint32(i+1))
		net.Switches = append(net.Switches, leafSW[i])
	}
	for i := range spineSW {
		spineSW[i] = netsim.NewSwitch(fmt.Sprintf("spine%d", i), uint32(100+i))
		net.Switches = append(net.Switches, spineSW[i])
	}

	for li, leaf := range leafSW {
		var pool *netsim.BufferPool
		if cfg.SharedBuffer > 0 {
			pool = netsim.NewBufferPool(cfg.SharedBuffer)
		}
		// Downlinks to hosts.
		for hi := 0; hi < hostsPerLeaf; hi++ {
			id := int32(li*hostsPerLeaf + hi)
			h := netsim.NewHost(id, part.Scheds[li])
			nic := netsim.NewPort(fmt.Sprintf("h%d-nic", id), part.Scheds[li], cfg.nicCfg(cfg.HostRate), leaf, nil)
			h.SetNIC(nic)
			down := netsim.NewPort(fmt.Sprintf("leaf%d-h%d", li, hi), part.Scheds[li], cfg.switchPortCfg(cfg.HostRate), h, pool)
			leaf.AddRoute(id, leaf.AddPort(down))
			net.Hosts = append(net.Hosts, h)
			part.HostShard[id] = li
			h.SetPool(part.Pools[li])
			nic.SetPacketPool(part.Pools[li])
			down.SetPacketPool(part.Pools[li])
		}
		// Uplinks to every spine; remote hosts ECMP across them.
		var uplinks []int
		for si, spine := range spineSW {
			up := netsim.NewPort(fmt.Sprintf("leaf%d-spine%d", li, si), part.Scheds[li], cfg.switchPortCfg(cfg.CoreRate), spine, pool)
			uplinks = append(uplinks, leaf.AddPort(up))
			up.SetPacketPool(part.Pools[li])
			up.SetCross(part.Outboxes[li], part.Inboxes[leaves+si])
		}
		for other := 0; other < leaves; other++ {
			if other == li {
				continue
			}
			for hi := 0; hi < hostsPerLeaf; hi++ {
				leaf.AddRoute(int32(other*hostsPerLeaf+hi), uplinks...)
			}
		}
	}
	// Spine downlinks: one port per leaf, routing that leaf's hosts.
	for si, spine := range spineSW {
		var pool *netsim.BufferPool
		if cfg.SharedBuffer > 0 {
			pool = netsim.NewBufferPool(cfg.SharedBuffer)
		}
		shard := leaves + si
		for li, leaf := range leafSW {
			down := netsim.NewPort(fmt.Sprintf("%s-%s", spine.Name(), leaf.Name()), part.Scheds[shard], cfg.switchPortCfg(cfg.CoreRate), leaf, pool)
			idx := spine.AddPort(down)
			for hi := 0; hi < hostsPerLeaf; hi++ {
				spine.AddRoute(int32(li*hostsPerLeaf+hi), idx)
			}
			down.SetPacketPool(part.Pools[shard])
			down.SetCross(part.Outboxes[shard], part.Inboxes[li])
		}
	}
	// Worst case: host→leaf→spine→leaf→host, 4 wires each way.
	mtu := netsim.MSS + netsim.HeaderBytes
	net.BaseRTT = 8*cfg.LinkDelay +
		2*cfg.HostRate.TxTime(mtu) + 2*cfg.CoreRate.TxTime(mtu) +
		2*cfg.HostRate.TxTime(netsim.HeaderBytes) + 2*cfg.CoreRate.TxTime(netsim.HeaderBytes)
	return net
}

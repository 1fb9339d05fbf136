package netsim

import (
	"fmt"

	"ppt/internal/sim"
)

// NumPriorities is the number of strict-priority queues per port, the
// eight classes commodity switches expose via DSCP.
const NumPriorities = 8

// Device is anything that can accept a packet from a wire: a switch or a
// host.
type Device interface {
	Name() string
	Receive(pkt *Packet)
}

// BufferPool models a switch's shared packet memory. Ports that share a
// pool drop (or trim) arrivals once the pool is exhausted, matching the
// shared-buffer architecture of the Dell S4048 used in the paper's
// testbed.
//
// Member ports start departures on demand and release their bytes
// lazily (see Port): settle() observes every member at each occupancy
// read — tryReserve, Used — so admission and dynamic-threshold
// decisions see the occupancy an eager engine would (DESIGN.md §7.6).
type BufferPool struct {
	Cap  int64
	used int64
	// Drops counts pool-exhaustion losses across all member ports.
	Drops int64
	// members are the ports drawing from this pool. All members of one
	// pool share one scheduler (pools are per-switch), so the strict
	// now-1 settle bound is well defined.
	members []*Port
}

// NewBufferPool returns a pool of the given byte capacity.
func NewBufferPool(capBytes int64) *BufferPool {
	return &BufferPool{Cap: capBytes}
}

// settle observes every member port with a backlog or deferred
// accounting through now-1: a release becomes visible strictly after its
// serialize-complete instant.
func (b *BufferPool) settle() {
	for _, p := range b.members {
		if p.totalQueued > 0 || p.npend > 0 {
			p.SettleTx(p.sched.Now() - 1)
		}
	}
}

// Used reports the bytes currently held.
func (b *BufferPool) Used() int64 {
	b.settle()
	return b.used
}

func (b *BufferPool) tryReserve(n int64) bool {
	b.settle()
	if b.used+n > b.Cap {
		return false
	}
	b.used += n
	return true
}

func (b *BufferPool) release(n int64) {
	b.used -= n
	if b.used < 0 {
		panic("netsim: buffer pool underflow")
	}
}

// PortConfig parameterizes one egress port.
type PortConfig struct {
	Rate  Rate
	Delay sim.Time // propagation delay of the attached wire

	// ECNHighK / ECNLowK are instantaneous marking thresholds in bytes
	// for the high class (priorities < lowClassStart) and low class.
	// Zero disables marking for that class. High-class marking compares
	// against high-class occupancy only (lower classes cannot delay it
	// under SP); low-class marking compares against total occupancy.
	ECNHighK int64
	ECNLowK  int64

	// QueueCap bounds this port's total occupancy in bytes. Zero means
	// the port is limited only by its shared pool (if any).
	QueueCap int64

	// LowClassCap, when non-zero, bounds the bytes the low class may
	// occupy (the RC3 limited-buffer variant of Fig 24).
	LowClassCap int64

	// TrimToHeader enables NDP behaviour: a data packet that would be
	// dropped for lack of buffer is truncated to HeaderBytes and
	// enqueued at the highest priority instead.
	TrimToHeader bool

	// DroppableThresh, when non-zero, drops packets flagged Droppable
	// (Aeolus unscheduled) whenever the packet's own queue already
	// holds at least this many bytes.
	DroppableThresh int64

	// EnableINT makes the port append an INTHop record to data packets
	// that carry a non-nil INT slice (HPCC).
	EnableINT bool

	// DynamicLowThreshold enables dynamic-threshold admission for the
	// low class (modern shared-buffer switches): a low-class packet is
	// admitted only while the class occupies less than the remaining
	// free buffer. The paper's evaluation models plain shared drop-tail
	// buffers, so this is off by default.
	DynamicLowThreshold bool

	// LossProb, when non-zero, drops each arriving data packet with
	// this probability (deterministic per-port PRNG seeded by LossSeed)
	// — failure injection for robustness testing, modeling corruption
	// or gray-failure loss rather than congestion.
	LossProb float64
	LossSeed uint64
}

// PortStats are the monotonically increasing counters a port maintains;
// the stats package samples them.
type PortStats struct {
	TxBytes      int64 // bytes fully serialized out
	TxPackets    int64
	RxPackets    int64 // packets offered to Enqueue
	Drops        int64 // congestion/admission drops (excludes injected losses)
	DropsLow     int64 // of Drops, low-class packets
	Trims        int64
	RandomDrops  int64 // injected (non-congestion) losses; disjoint from Drops
	MarksHigh    int64
	MarksLow     int64
	TxDataBytes  int64 // payload bytes of Data packets sent
	TxFreshBytes int64 // payload bytes excluding retransmissions
}

// Port is one egress: eight FIFO queues drained in strict priority onto a
// wire of fixed rate and propagation delay.
type Port struct {
	name    string
	sched   *sim.Scheduler
	cfg     PortConfig
	peer    Device
	pool    *BufferPool
	pktPool *PacketPool
	queues  [NumPriorities]pktRing

	bytesQueued [NumPriorities]int64
	totalQueued int64
	lowQueued   int64
	lossState   uint64

	// The port pipeline (DESIGN.md §7.6; see advance). busyUntil is the
	// serialize-complete time of the last started packet (-1 before the
	// first); lastStart/lastWire are that packet's start instant and
	// wire length. Starting a packet arms ONE event — its delivery at
	// txDone+Delay — and defers the transmit-side accounting (TxBytes,
	// pool release, ...) in pend, oldest first. A start at t settles
	// through t-1 and txDone strictly increases, so only the previous
	// packet's entry (txDone == t) can meet the new one: pend never
	// holds more than two. wire holds packets propagating toward
	// the peer: the delay is one constant per port, so deliveries are
	// strictly FIFO and the next delivery always takes the head;
	// delivered counts the packets it handed to the peer. drain is the
	// timer that keeps an INT port's departures on time. intq holds INT
	// packets awaiting their tx-complete hook. The callbacks are bound
	// once at construction so the hot path schedules them without
	// allocating.
	busyUntil sim.Time
	lastStart sim.Time
	lastWire  int64
	drain     sim.Timer
	wire      pktRing
	delivered int64
	intq      pktRing
	pend      [2]pendTx
	npend     int
	onDrain   func()
	onDeliver func()
	onTxDone  func()

	// cross, when set, marks the wire as crossing a shard boundary in a
	// partitioned fabric: each departure joins the cross wire's FIFO at
	// transmit start (due at txDone+Delay) instead of propagating
	// through the local scheduler, and the destination shard's Inbox
	// calls deliverCross at the due time (cross.go).
	cross *crossWire

	Stats PortStats
}

// pendTx is one deferred transmit-accounting record: the counter deltas
// of a packet whose serialization completes at txDone. Fields are
// captured at transmit start (never a *Packet — cross-shard deposits
// hand the packet to another shard's event loop immediately).
// Entries are appended in strictly increasing txDone order.
type pendTx struct {
	txDone sim.Time
	wire   int32 // WireLen: pool release + TxBytes delta
	data   int32 // PayloadLen when Kind == Data, else 0
	fresh  int32 // data excluding retransmissions
}

// NewPort builds a port; peer is the device at the far end of its wire,
// pool the (optional) shared buffer it draws from.
func NewPort(name string, s *sim.Scheduler, cfg PortConfig, peer Device, pool *BufferPool) *Port {
	if cfg.Rate <= 0 {
		panic("netsim: port needs a rate")
	}
	p := &Port{name: name, sched: s, cfg: cfg, peer: peer, pool: pool}
	p.busyUntil, p.lastStart = -1, -1
	p.lossState = cfg.LossSeed*2654435761 + 0x9e3779b97f4a7c15
	p.onDrain = p.drainTx
	p.onDeliver = p.deliver
	p.onTxDone = p.txDoneINT
	if pool != nil {
		pool.members = append(pool.members, p)
	}
	return p
}

// Name identifies the port in diagnostics.
func (p *Port) Name() string { return p.name }

// Config returns the port's configuration.
func (p *Port) Config() PortConfig { return p.cfg }

// Scheduler returns the event scheduler this port runs on. Sharded run
// drivers use it to settle each port at its own shard's horizon.
func (p *Port) Scheduler() *sim.Scheduler { return p.sched }

// SetPacketPool attaches the run's packet pool so dropped packets are
// recycled at the sink instead of leaking to the garbage collector.
// Optional: without a pool, drops simply become garbage.
func (p *Port) SetPacketPool(pp *PacketPool) { p.pktPool = pp }

// Pool returns the shared buffer the port draws from, or nil.
func (p *Port) Pool() *BufferPool { return p.pool }

// Queued reports the bytes currently buffered at this port.
func (p *Port) Queued() int64 { return p.totalQueued }

// QueuedLow reports the buffered bytes in the low class.
func (p *Port) QueuedLow() int64 { return p.lowQueued }

// QueuedHigh reports the buffered bytes in the high class.
func (p *Port) QueuedHigh() int64 { return p.totalQueued - p.lowQueued }

// lowClassStart is the first priority of the low class: the PPT split
// of §4.2, HCP on P0–P3 and LCP on P4–P7.
const lowClassStart = 4

func (p *Port) isLow(prio int8) bool { return prio >= lowClassStart }

// Enqueue offers pkt to the port: it first starts every departure owed
// by now, so admission and marking see the queue an eager engine would,
// then applies (in order) Aeolus selective drop, buffer admission with
// optional NDP trimming, and ECN marking, and queues or starts the
// packet.
func (p *Port) Enqueue(pkt *Packet) {
	if p.totalQueued > 0 {
		p.advance(p.sched.Now())
	}
	p.Stats.RxPackets++
	prio := pkt.Prio
	if prio < 0 || prio >= NumPriorities {
		panic(fmt.Sprintf("netsim: priority %d out of range", prio))
	}

	if p.cfg.DroppableThresh > 0 && pkt.Droppable && p.bytesQueued[prio] >= p.cfg.DroppableThresh {
		p.drop(pkt)
		return
	}
	if p.cfg.LossProb > 0 && pkt.Kind == Data && p.randomLoss() {
		// Injected losses are counted on their own: folding them into
		// Drops/DropsLow via drop() would overstate congestion loss under
		// fault injection.
		p.Stats.RandomDrops++
		p.pktPool.Free(pkt)
		return
	}
	// Header-sized control packets (ACKs, grants, pulls, NACKs) are
	// never dropped: commodity switches keep headroom for them, and a
	// simulated control-plane loss would measure an artifact none of
	// the modeled protocols guards against. Their backlog is bounded by
	// the control-to-data ratio of the protocols themselves.
	if pkt.Kind != Data {
		p.forceAdmit(pkt)
		p.mark(pkt)
		p.push(pkt)
		return
	}
	if p.cfg.LowClassCap > 0 && p.isLow(prio) && p.lowQueued+int64(pkt.WireLen) > p.cfg.LowClassCap {
		p.drop(pkt)
		return
	}
	// Dynamic-threshold admission (optional): under pressure the
	// scavenger class's share collapses toward zero.
	if p.cfg.DynamicLowThreshold && p.isLow(prio) {
		free := p.freeBuffer()
		if free >= 0 && p.lowQueued+int64(pkt.WireLen) > free {
			p.drop(pkt)
			return
		}
	}

	if !p.admit(pkt) {
		if p.cfg.TrimToHeader && pkt.Kind == Data && !pkt.Trimmed {
			// NDP semantics: headers are (nearly) never lost. Trimmed
			// headers are admitted unconditionally — their backlog is
			// bounded by the trim ratio (64B per dropped MTU), which is
			// how NDP switches reserve header space.
			pkt.Trimmed = true
			pkt.WireLen = HeaderBytes
			pkt.Prio = 0
			p.Stats.Trims++
			p.forceAdmit(pkt)
			p.mark(pkt)
			p.push(pkt)
			return
		}
		p.drop(pkt)
		return
	}
	p.mark(pkt)
	p.push(pkt)
}

// admit reserves buffer space, returning false if the packet must be
// dropped (or trimmed).
func (p *Port) admit(pkt *Packet) bool {
	n := int64(pkt.WireLen)
	if p.cfg.QueueCap > 0 && p.totalQueued+n > p.cfg.QueueCap {
		return false
	}
	if p.pool != nil && !p.pool.tryReserve(n) {
		p.pool.Drops++
		return false
	}
	return true
}

// forceAdmit reserves buffer space unconditionally (trimmed headers),
// letting the pool overshoot its cap by the header backlog.
func (p *Port) forceAdmit(pkt *Packet) {
	if p.pool != nil {
		p.pool.used += int64(pkt.WireLen)
	}
}

// randomLoss advances the port's xorshift PRNG and reports whether the
// packet should be lost.
func (p *Port) randomLoss() bool {
	x := p.lossState
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	p.lossState = x
	return float64(x>>11)/float64(1<<53) < p.cfg.LossProb
}

// freeBuffer reports the remaining buffer headroom governing low-class
// admission, or -1 when the port is unbuffered (unlimited).
func (p *Port) freeBuffer() int64 {
	free := int64(-1)
	if p.cfg.QueueCap > 0 {
		free = p.cfg.QueueCap - p.totalQueued
	}
	if p.pool != nil {
		if pf := p.pool.Cap - p.pool.Used(); free < 0 || pf < free {
			free = pf
		}
	}
	if free < 0 && (p.cfg.QueueCap > 0 || p.pool != nil) {
		free = 0
	}
	return free
}

func (p *Port) mark(pkt *Packet) {
	if !pkt.ECT || pkt.CE {
		return
	}
	if p.isLow(pkt.Prio) {
		if p.cfg.ECNLowK > 0 && p.totalQueued >= p.cfg.ECNLowK {
			pkt.CE = true
			p.Stats.MarksLow++
		}
	} else {
		if p.cfg.ECNHighK > 0 && p.totalQueued-p.lowQueued >= p.cfg.ECNHighK {
			pkt.CE = true
			p.Stats.MarksHigh++
		}
	}
}

func (p *Port) push(pkt *Packet) {
	if now := p.sched.Now(); p.busyUntil <= now {
		// Idle: Enqueue advanced through now, so the queues are empty,
		// and the packet starts inline at its own instant.
		p.start(pkt, now)
		return
	}
	prio := pkt.Prio
	p.queues[prio].push(pkt)
	n := int64(pkt.WireLen)
	p.bytesQueued[prio] += n
	p.totalQueued += n
	if p.isLow(prio) {
		p.lowQueued += n
	}
	// Only an INT port arms the drain timer for a backlog, unless its
	// in-flight packet's own delivery observes it at busyUntil (Delay 0).
	if p.cfg.EnableINT && p.cfg.Delay > 0 && !p.drain.Pending() {
		p.drain = p.sched.At(p.busyUntil, p.onDrain)
	}
}

// drop is a packet sink: the packet is dead and recycled here.
func (p *Port) drop(pkt *Packet) {
	p.Stats.Drops++
	if p.isLow(pkt.Prio) {
		p.Stats.DropsLow++
	}
	p.pktPool.Free(pkt)
}

// The port pipeline (DESIGN.md §7.6). A departure at instant t takes the
// strict-priority head among packets that arrived strictly before t; t
// is the previous packet's serialize-complete time (busyUntil), or the
// arrival instant itself when the port is idle. Departures owed by a
// backlogged port are started on demand, at their exact instant, the
// next time the port is observed: every Enqueue (before admission),
// every SettleTx (pool settles, samplers, the run drivers' final
// settle), every delivery event of the port's own wire, and on a cross
// wire the end of the shard's window. The latest a departure owed at
// busyUntil is decided (the port's slack) is:
//
//   - busyUntil + Delay on a local wire: the in-flight packet's own
//     delivery then is the guaranteed observation;
//   - busyUntil on an INT port, kept by one drain timer while a backlog
//     waits (its tx-complete hook must be armed at txDone);
//   - on a non-INT cross wire, the end of the round whose window holds
//     busyUntil (Outbox.Advance).
//
// A late decision never lands in the past: a delivery armed for a
// departure at t0 fires at t0 + TxTime + Delay > t0 + Delay, and a cross
// departure is due beyond every peer's horizon of its round.

// advance starts every departure owed through limit, each at its exact
// instant busyUntil.
func (p *Port) advance(limit sim.Time) {
	for p.totalQueued > 0 && p.busyUntil <= limit {
		p.start(p.pop(), p.busyUntil)
	}
}

// start begins serializing pkt at instant t (<= now, or on a cross
// port <= the end of the window). The delivery is armed right here (on
// a cross-shard wire, the packet joins the wire's FIFO instead), so it
// is the packet's only event; the transmit-side accounting is deferred
// in pend and applied by SettleTx.
func (p *Port) start(pkt *Packet, t sim.Time) {
	txDone := t + p.cfg.Rate.TxTime(int(pkt.WireLen))
	p.busyUntil = txDone
	p.lastStart, p.lastWire = t, int64(pkt.WireLen)
	// Every earlier entry completed by t; settling strictly behind t
	// leaves at most the previous packet's, so the new one fits even on
	// ports whose wire never settles pend (cross).
	if p.npend > 0 {
		p.settlePend(t - 1)
	}
	var data, fresh int32
	if pkt.Kind == Data {
		data = pkt.PayloadLen
		if !pkt.Retrans {
			fresh = pkt.PayloadLen
		}
	}
	p.pend[p.npend] = pendTx{txDone: txDone, wire: pkt.WireLen, data: data, fresh: fresh}
	p.npend++
	if p.cfg.EnableINT && pkt.Kind == Data && pkt.INT != nil {
		// Only data gathers telemetry: an HPCC ACK's INT is its echo.
		// Armed before the delivery so it runs first even at Delay == 0.
		p.intq.push(pkt)
		p.sched.At(txDone, p.onTxDone)
	}
	if p.cross != nil {
		// Conservative: t >= the shard's eff, so the due time is at
		// least eff + Delay (DESIGN.md §7.6).
		p.cross.push(txDone+p.cfg.Delay, pkt)
		return
	}
	p.wire.push(pkt)
	p.sched.At(txDone+p.cfg.Delay, p.onDeliver)
}

// drainTx is an INT port's drain timer: it starts the departures owed
// by now and re-arms while a backlog remains.
func (p *Port) drainTx() {
	p.advance(p.sched.Now())
	if p.totalQueued > 0 {
		p.drain = p.sched.At(p.busyUntil, p.onDrain)
	}
}

// txDoneINT is an INT port's tx-complete hook: it appends the INTHop of
// the packet whose serialization completes now. QLen is the occupancy at
// txDone including the packet departing at this instant, whether or not
// that departure was already started; TxBytes counts this packet.
func (p *Port) txDoneINT() {
	now := p.sched.Now()
	qlen := p.totalQueued
	if p.lastStart == now {
		qlen += p.lastWire
	}
	txBytes := p.Stats.TxBytes
	for i := 0; i < p.npend && p.pend[i].txDone <= now; i++ {
		txBytes += int64(p.pend[i].wire)
	}
	pkt := p.intq.pop()
	pkt.INT = append(pkt.INT, INTHop{QLen: qlen, TxBytes: txBytes, TS: now, Rate: p.cfg.Rate})
}

// deliver is a local wire's per-packet event. It observes the port
// through this packet's serialize-complete time (now - Delay; pend txDone
// values strictly increase, so that settles exactly the prefix ending at
// this packet's entry, even at Delay == 0), which also starts the
// departure owed at that instant, then hands the wire head to the peer.
func (p *Port) deliver() {
	p.SettleTx(p.sched.Now() - p.cfg.Delay)
	p.delivered++
	p.peer.Receive(p.wire.pop())
}

// SettleTx observes the port through limit: it starts every departure
// owed by then, then applies every deferred transmit-accounting entry
// with txDone <= limit — shared-pool release and the Tx counters.
// Observation points mid-run pass the strictly-past bound now-1, so a
// release is invisible at its own serialize-complete instant and visible
// one picosecond later; the run drivers call it once more at the final
// executed horizon, inclusively, so the counters cover exactly the
// serializations that completed within the run (DESIGN.md §7.6).
func (p *Port) SettleTx(limit sim.Time) {
	p.advance(limit)
	if p.npend > 0 {
		p.settlePend(limit)
	}
}

// settlePend applies the pend entries with txDone <= limit.
func (p *Port) settlePend(limit sim.Time) {
	i := 0
	for i < p.npend && p.pend[i].txDone <= limit {
		e := &p.pend[i]
		n := int64(e.wire)
		if p.pool != nil {
			p.pool.release(n)
		}
		p.Stats.TxBytes += n
		p.Stats.TxPackets++
		p.Stats.TxDataBytes += int64(e.data)
		p.Stats.TxFreshBytes += int64(e.fresh)
		i++
	}
	if i > 0 {
		// Of two entries, at most the newer one is left; it moves to
		// the front (a stale copy when nothing is left).
		p.npend -= i
		p.pend[0] = p.pend[1]
	}
}

// SetCross makes this port's wire cross from the outbox's shard into
// the inbox's shard of a partitioned fabric (see cross.go); only
// topo.LeafSpine calls it. It panics on a second wire from one shard
// into the same inbox: the delivery order rests on one wire per shard
// pair. With no local delivery to observe the port, a non-INT cross
// port's owed departures are decided at the end of each window: the
// outbox lists it for the run driver (DESIGN.md §7.6).
func (p *Port) SetCross(o *Outbox, in *Inbox) {
	p.cross = &crossWire{port: p}
	in.add(o.shard, p.cross)
	if !p.cfg.EnableINT {
		o.ports = append(o.ports, p)
	}
}

// deliverCross hands a cross-shard packet to the peer at its stamped
// delivery time (invoked by the destination shard's Inbox).
func (p *Port) deliverCross(pkt *Packet) {
	p.peer.Receive(pkt)
}

// pop removes and returns the head of the highest-priority nonempty
// queue, or nil.
func (p *Port) pop() *Packet {
	for prio := 0; prio < NumPriorities; prio++ {
		if p.queues[prio].len() == 0 {
			continue
		}
		pkt := p.queues[prio].pop()
		n := int64(pkt.WireLen)
		p.bytesQueued[prio] -= n
		p.totalQueued -= n
		if p.isLow(int8(prio)) {
			p.lowQueued -= n
		}
		return pkt
	}
	return nil
}

// Audit checks the port's packet conservation after a run's final
// settle: every packet offered to Enqueue was transmitted, dropped, or
// is still queued or serializing; every packet started was delivered or
// is still on the wire (the local wire ring, or the cross wire's
// unpublished and unread entries); and no queued packet waits behind a
// transmitter that was free by the port's clock — a departure the
// on-demand path never started.
func (p *Port) Audit() error {
	queued := 0
	for i := range p.queues {
		queued += p.queues[i].len()
	}
	serializing := p.npend
	s := &p.Stats
	if s.RxPackets != s.TxPackets+s.Drops+s.RandomDrops+int64(queued+serializing) {
		return fmt.Errorf("netsim: port %s: rx %d != tx %d + drops %d + random drops %d + queued %d + serializing %d",
			p.name, s.RxPackets, s.TxPackets, s.Drops, s.RandomDrops, queued, serializing)
	}
	delivered, onWire := p.delivered, p.wire.len()
	if w := p.cross; w != nil {
		delivered, onWire = w.delivered, w.onWire()
	}
	if s.TxPackets+int64(serializing) != delivered+int64(onWire) {
		return fmt.Errorf("netsim: port %s: tx %d + serializing %d != delivered %d + on wire %d",
			p.name, s.TxPackets, serializing, delivered, onWire)
	}
	if queued > 0 && p.busyUntil <= p.sched.Now() {
		return fmt.Errorf("netsim: port %s: %d packets queued behind a transmitter idle since %v (now %v)",
			p.name, queued, p.busyUntil, p.sched.Now())
	}
	return nil
}

// Audit checks that the pool holds exactly its members' queued bytes
// plus the bytes of serializations not yet settled.
func (b *BufferPool) Audit() error {
	var held int64
	for _, p := range b.members {
		held += p.totalQueued
		for _, e := range p.pend[:p.npend] {
			held += int64(e.wire)
		}
	}
	if b.used != held {
		return fmt.Errorf("netsim: buffer pool holds %d bytes, members account for %d", b.used, held)
	}
	return nil
}

// Package lowloop is the one tail engine: PPT's low-priority control
// loop (§3.1–3.2) and the receiver that answers it. PPT, swift+ppt
// (Fig 14) and hpcc+ppt (appendix B) run the loop; RC3 and the §2.3
// oracle run it under their own Policy. Every window transport binds
// the receiver. A PPT loop sends opportunistic packets backwards from
// the flow tail, paces its initial window over one RTT, is 2:1
// ACK-clocked thereafter (exponential window decreasing, EWD), is
// silenced by ECE, and terminates itself after two RTTs without a
// low-priority ACK.
//
// The host — the high-priority loop, dctcp's window sender — provides
// its send frontier, window, RTT estimate and cumulative ACK (Host),
// tags the opportunistic packets, and decides when to open a loop: PPT
// on its case-1/case-2 triggers, Swift when measured delay falls below
// target, HPCC when telemetry shows utilization below η, RC3 at flow
// start, the oracle every RTT.
//
// A loop is refused while its backlog — the opportunistic bytes earlier
// loops sent that are neither low-ACKed nor below the host's cumulative
// ACK — is at least half its window, and Terminate leaves the backlog
// in place. The paper describes no such gate. This rule was chosen over
// no gate, and over a gate whose backlog only low ACKs drain, by a claim
// table declared before any run (figs 8–16 and appendix B, seeds 1–5;
// EXPERIMENTS.md, "The low loop's backlog rule").
package lowloop

import (
	"ppt/internal/netsim"
	"ppt/internal/sim"
	"ppt/internal/transport"
)

// Host is the high-priority loop as seen by the low loop: dctcp's window
// sender, whose embedders may override RTT.
type Host interface {
	// Frontier is the high loop's next-new-byte offset (snd_nxt).
	Frontier() int64
	// Acked is the high loop's cumulative ACK (snd_una).
	Acked() int64
	// Window is the high loop's current congestion window in bytes.
	Window() float64
	// RTT is the current round-trip estimate (0 = use the base RTT).
	RTT() sim.Time
	// LowPrio tags opportunistic packets (the mirror priority).
	LowPrio() int8
	// SkipSet is the shared scoreboard of bytes the low loop delivered;
	// the high loop must skip these when transmitting.
	SkipSet() *transport.IntervalSet
	// OnSkipUpdate is called after the scoreboard grows, so the high
	// loop can re-evaluate what it may send.
	OnSkipUpdate()
}

// Policy holds the terms in which the tail loops differ; the zero value
// is PPT's loop. The tag (Host.LowPrio) and when to open are the host's.
type Policy struct {
	// NoECN sends non-ECT, and ECE no longer silences the loop (Fig 15).
	NoECN bool
	// NoEWD sends the whole remaining tail at line rate (Fig 16).
	NoEWD bool
	// Burst sends the initial window back to back at open.
	Burst bool
	// Blind clocks out one packet per low ACK whatever its ECE; no dead
	// timer closes the loop.
	Blind bool
	// Unclocked leaves low ACKs only to fold: the opener sizes and ends
	// each fill, so there is no clock, dead timer or backlog gate.
	Unclocked bool
	// AtFrontier lets sends reach the host's frontier, not stop one host
	// window above it.
	AtFrontier bool
}

// Loop is one flow's low-priority control loop. The zero value is an
// unbound shell; Init attaches it to a flow, so hosts that recycle
// their senders recycle the loop with them.
type Loop struct {
	env  *transport.Env
	f    *transport.Flow
	host Host
	pol  Policy

	active bool
	// tailNext is the low end of the tail the loop has covered; the next
	// opportunistic segment ends here. It moves down from the flow tail.
	tailNext int64
	// budget is what remains of the current loop's initial window; once
	// spent, the loop is purely ACK-clocked.
	budget  int64
	paceGap sim.Time
	// oppSent is the cumulative opportunistic payload sent.
	oppSent int64
	// sent holds every range the loop has sent. The host's skip set holds
	// the low-ACKed ones (only the loop feeds it), so what sent covers
	// above the host's cumulative ACK beyond the skip set is the backlog.
	sent transport.IntervalSet

	deadTimer, paceTimer sim.Timer
	// paceFn and termFn are bound once: a method value built at every
	// timer arm would allocate a closure per packet.
	paceFn, termFn func()
}

// New builds an inactive loop over f's tail under PPT's policy.
func New(env *transport.Env, f *transport.Flow, host Host) *Loop {
	l := &Loop{}
	l.Init(env, f, host, Policy{})
	return l
}

// Init (re)targets the loop at a flow under a policy and resets every
// piece of loop state. The host's cumulative ACK must already be reset:
// it bounds the loop's reach when the modeled send buffer (Env.SendBuf)
// is finite.
func (l *Loop) Init(env *transport.Env, f *transport.Flow, host Host, pol Policy) {
	if l.paceFn == nil {
		l.paceFn, l.termFn = l.paceOne, l.Terminate
	}
	l.env, l.f, l.host, l.pol = env, f, host, pol
	l.active = false
	l.budget, l.paceGap, l.oppSent = 0, 0, 0
	l.sent.Reset()
	l.deadTimer, l.paceTimer = sim.Timer{}, sim.Timer{}
	l.tailNext = l.bufferedTail()
}

// Active reports whether a loop is currently open.
func (l *Loop) Active() bool { return l.active }

// OppSent reports total opportunistic payload bytes sent.
func (l *Loop) OppSent() int64 { return l.oppSent }

// TailNext reports the low end of the tail the loop has covered.
func (l *Loop) TailNext() int64 { return l.tailNext }

// StopTimers cancels every pending callback into the loop, the
// precondition for recycling it.
func (l *Loop) StopTimers() {
	l.deadTimer.Stop()
	l.paceTimer.Stop()
}

// bufferedTail is the highest byte offset present in the modeled send
// buffer (Env.SendBuf): the application has only copied SendBuf bytes
// beyond what the receiver has consumed.
func (l *Loop) bufferedTail() int64 {
	if l.env.SendBuf <= 0 {
		return l.f.Size
	}
	return min(l.host.Acked()+l.env.SendBuf, l.f.Size)
}

// Open starts a loop with initial window i, paced over one RTT — or,
// under the EWD ablation, the whole remaining tail at line rate, or
// under Burst back to back. A guarded loop (a mid-flow re-open) caps its
// window to the gap beyond two host windows. Open is refused while a
// loop is active, and, unless the loop is Unclocked, while the backlog
// is at least I/2. Only a loop that opens counts in Env.Eff's opens.
func (l *Loop) Open(i int64, guarded bool) {
	if i < netsim.MSS || l.active || l.f.SenderDone() {
		return
	}
	if guarded {
		// Fill only the gap the host cannot cover itself this round: the
		// unsent bytes minus roughly two windows of its progress.
		spare := l.tailNext - l.host.Frontier() - 2*int64(l.host.Window())
		if i > spare {
			i = spare
		}
		if i < netsim.MSS {
			return
		}
	}
	// With a finite send buffer, a fresh loop restarts from the buffered
	// tail: the buffer slid as the receiver consumed data, exposing
	// bytes above where the previous loop stopped. (With an unbounded
	// buffer tailNext is already the true frontier; resetting it would
	// re-walk — and duplicate — the already-sent tail.)
	if l.env.SendBuf > 0 {
		if t := l.bufferedTail(); t > l.tailNext {
			l.tailNext = t
		}
	}
	// Never send below what the host is about to cover.
	if l.tailNext <= l.host.Frontier() {
		return
	}
	acked := l.host.Acked()
	if !l.pol.Unclocked && l.sent.CoveredIn(acked, l.f.Size)-l.host.SkipSet().CoveredIn(acked, l.f.Size) >= i/2 {
		return
	}
	l.active = true
	if guarded {
		l.env.Eff.Case2Opens++
	} else {
		l.env.Eff.Case1Opens++
	}
	l.budget = i
	if l.pol.NoEWD {
		l.budget = l.tailNext - l.host.Frontier()
		l.paceGap = l.f.Src.Rate().TxTime(netsim.MSS + netsim.HeaderBytes)
	} else {
		pkts := (i + netsim.MSS - 1) / netsim.MSS
		l.paceGap = l.rtt() / sim.Time(pkts)
	}
	if !l.pol.Blind && !l.pol.Unclocked {
		l.resetDeadTimer()
	}
	l.paceOne()
}

func (l *Loop) rtt() sim.Time {
	if r := l.host.RTT(); r > 0 {
		return r
	}
	return l.env.BaseRTT()
}

// paceOne transmits the next packet of the initial window — under
// Burst, the whole window at once.
func (l *Loop) paceOne() {
	for l.active && !l.f.SenderDone() && l.budget > 0 && l.send() {
		l.env.Eff.PacedPkts++
		l.budget -= netsim.MSS
		if !l.pol.Burst {
			l.paceTimer = l.env.Sched().After(l.paceGap, l.paceFn)
			return
		}
	}
}

// send emits one opportunistic packet from the tail, skipping ranges
// already delivered; false when the loops have crossed and nothing
// remains.
func (l *Loop) send() bool {
	// Unless AtFrontier, stay one host window ahead of the high loop's
	// frontier: the host covers that region itself within the next
	// round, so opportunistic copies there lose the race and are pure
	// duplication ("the window summation of LCP and HCP will not exceed
	// the MW", §3).
	frontier := l.host.Frontier()
	if !l.pol.AtFrontier {
		frontier += int64(l.host.Window())
	}
	skip := l.host.SkipSet()
	for l.tailNext > frontier && skip.Contains(l.tailNext-1, l.tailNext) {
		l.tailNext = skip.ContiguousBack(l.tailNext)
	}
	seq := l.tailNext - netsim.MSS
	if seq < frontier {
		seq = frontier
	}
	if cov := skip.ContiguousFrom(seq); cov > seq {
		// The packet would start inside a delivered range; trim it.
		seq = cov
	}
	if seq >= l.tailNext {
		return false
	}
	n := int32(l.tailNext - seq)
	pkt := l.f.Src.Data(l.f.ID, l.f.Dst.ID(), seq, n, l.host.LowPrio())
	pkt.ECT = !l.pol.NoECN
	pkt.LowLoop = true
	l.f.Src.Send(pkt)
	l.env.Eff.SentLowPayload += int64(n)
	l.oppSent += int64(n)
	l.sent.Add(seq, l.tailNext)
	l.tailNext = seq
	return true
}

// OnLowAck processes a low-priority ACK: folds the ranges it names into
// the shared scoreboard and — unless the ACK carries ECE — clocks out
// one new opportunistic packet (the EWD 2:1 halving, §3.2). A Blind loop
// clocks one out whatever the ECE; an Unclocked one only folds.
func (l *Loop) OnLowAck(pkt *netsim.Packet) {
	if pkt.NRanges > 0 {
		skip := l.host.SkipSet()
		for i := range pkt.NRanges {
			skip.Add(pkt.RangeSeq[i], pkt.RangeSeq[i]+int64(pkt.RangeLen[i]))
		}
		l.host.OnSkipUpdate()
	}
	if !l.active || l.pol.Unclocked {
		return
	}
	if !l.pol.Blind {
		l.resetDeadTimer()
		if pkt.ECE && !l.pol.NoECN {
			return
		}
	}
	if l.send() {
		l.env.Eff.ClockedPkts++
	}
}

func (l *Loop) resetDeadTimer() {
	l.deadTimer.Stop()
	l.deadTimer = l.env.Sched().After(2*l.rtt(), l.termFn)
}

// Terminate closes the loop — after two RTTs of ACK silence, or when
// the opener ends a fill — and stops its timers, so a later Open starts
// the one pace chain; a later trigger may open a fresh loop (§3.2
// remarks).
func (l *Loop) Terminate() {
	l.StopTimers()
	l.active = false
	l.budget = 0
}

// Receiver is the receiving endpoint of every window transport: dctcp,
// tcp10 and pias, ppt and its ablations, swift, swift+ppt, hpcc,
// hpcc+ppt, RC3, the MW recorder and the §2.3 oracle (the ones without a
// low loop simply never see an opportunistic packet). It reassembles
// data from both loops, acknowledges every high-loop packet on its own
// cumulative ACK, and answers opportunistic arrivals with one
// low-priority ACK per two (the 2:1 EWD clock of §3.2), or per arrival
// under AckEach.
// A lone arrival is held for its pair only until the loop has been quiet
// for two base RTTs, then acknowledged alone: a loop that sent an odd
// number of packets would otherwise strand its last one, and the sender
// would never learn to skip it.
type Receiver struct {
	transport.PoolNode
	R *transport.Reassembly
	// AckEach acknowledges each opportunistic arrival alone (RC3's 1:1
	// clock); Init clears it.
	AckEach bool

	env *transport.Env
	f   *transport.Flow

	// The pending opportunistic arrival, waiting for its pair.
	pendingSeq  int64
	pendingLen  int32
	pendingCE   bool
	pendingTS   sim.Time
	pendingPrio int8
	hasPending  bool
	flushTimer  sim.Timer
	// flushFn is flush bound once, on the first held arrival: arming with
	// a fresh method value would allocate per quiet period.
	flushFn func()

	// pooled marks receivers drawn from the Env pool (see GetReceiver).
	pooled bool
}

// NewReceiver builds a caller-owned receiver for f: Recycle stops its
// timer but leaves the struct to its creator.
func NewReceiver(env *transport.Env, f *transport.Flow) *Receiver {
	rc := &Receiver{}
	rc.Init(env, f)
	return rc
}

var receiverPool = transport.NewPoolKey("lowloop.receiver")

func newIdleReceiver() *Receiver { return &Receiver{} }

// GetReceiver returns an initialized receiver from env's pool; it
// returns to the pool via Recycle when its flow completes.
func GetReceiver(env *transport.Env, f *transport.Flow) *Receiver {
	rc := transport.PoolFor(env, receiverPool, newIdleReceiver).Get()
	rc.Init(env, f)
	rc.pooled = true
	return rc
}

// Init (re)targets the receiver at a flow, dropping any arrival a
// previous flow left pending.
func (rc *Receiver) Init(env *transport.Env, f *transport.Flow) {
	if rc.R == nil {
		rc.R = transport.NewReassembly(f.Size)
	} else {
		rc.R.Reset(f.Size)
	}
	rc.env, rc.f = env, f
	rc.AckEach = false
	rc.hasPending = false
	rc.flushTimer = sim.Timer{}
}

// Recycle implements transport.EndpointRecycler: stop the quiet flush,
// the receiver's only callback, then return pool-owned receivers to the
// freelist.
func (rc *Receiver) Recycle(env *transport.Env) {
	rc.flushTimer.Stop()
	if !rc.pooled {
		return
	}
	rc.pooled = false
	rc.f = nil
	transport.PoolFor(env, receiverPool, newIdleReceiver).Put(rc)
}

// Handle implements netsim.Endpoint. A high-loop packet gets its own ACK:
// the cumulative ACK, its CE mark as ECE, its send time, and (HPCC) its
// telemetry.
func (rc *Receiver) Handle(pkt *netsim.Packet) {
	if pkt.Kind != netsim.Data {
		return
	}
	if rc.deliver(pkt) {
		ack := rc.f.Dst.Ctrl(netsim.Ack, rc.f.ID, rc.f.Src.ID(), 0)
		ack.Seq = rc.R.CumAck()
		ack.ECE = pkt.CE
		ack.EchoTS = pkt.SentAt
		if len(pkt.INT) > 0 {
			// Move ownership: the data packet is recycled when this Handle
			// returns, so the ACK must take the telemetry array with it.
			ack.INT, pkt.INT = pkt.INT, nil
		}
		rc.f.Dst.Send(ack)
	}
	if rc.R.Complete() {
		rc.env.Complete(rc.f)
	}
}

// deliver adds a data packet to the reassembly, counts its new and
// duplicate bytes, and acknowledges it if it came from the low loop. It
// reports whether the packet came from the high loop, whose per-packet
// ACK Handle sends.
func (rc *Receiver) deliver(pkt *netsim.Packet) (high bool) {
	added := rc.R.Add(pkt.Seq, pkt.PayloadLen)
	eff := &rc.env.Eff
	if !pkt.LowLoop {
		eff.NewHighBytes += added
		eff.DupHighBytes += int64(pkt.PayloadLen) - added
		return true
	}
	eff.UsefulLow += added
	eff.DupLowBytes += int64(pkt.PayloadLen) - added
	if !rc.hasPending || rc.AckEach {
		rc.pendingSeq, rc.pendingLen, rc.pendingCE = pkt.Seq, pkt.PayloadLen, pkt.CE
		rc.pendingTS, rc.pendingPrio = pkt.SentAt, pkt.Prio
		rc.hasPending = true
		if rc.AckEach {
			rc.flush()
			return false
		}
		if rc.flushFn == nil {
			rc.flushFn = rc.flush
		}
		rc.flushTimer.Stop()
		rc.flushTimer = rc.env.Sched().After(2*rc.env.BaseRTT(), rc.flushFn)
		return false
	}
	rc.flushTimer.Stop()
	rc.flushTimer = sim.Timer{}
	rc.hasPending = false
	ack := rc.lowAck(pkt.Prio, pkt.CE || rc.pendingCE, pkt.SentAt)
	ack.AddRange(rc.pendingSeq, rc.pendingLen)
	ack.AddRange(pkt.Seq, pkt.PayloadLen)
	rc.f.Dst.Send(ack)
	return false
}

// flush acknowledges the pending arrival on its own: at once on the 1:1
// clock, otherwise once the loop has gone quiet (no pair showed up).
func (rc *Receiver) flush() {
	if !rc.hasPending || rc.f.Done() {
		return
	}
	rc.hasPending = false
	rc.flushTimer = sim.Timer{}
	ack := rc.lowAck(rc.pendingPrio, rc.pendingCE, rc.pendingTS)
	ack.AddRange(rc.pendingSeq, rc.pendingLen)
	rc.f.Dst.Send(ack)
}

// lowAck builds a low-loop ACK; the caller adds the ranges it covers
// and sends it.
func (rc *Receiver) lowAck(prio int8, ece bool, echo sim.Time) *netsim.Packet {
	ack := rc.f.Dst.Ctrl(netsim.Ack, rc.f.ID, rc.f.Src.ID(), prio)
	ack.LowLoop = true
	ack.Seq = rc.R.CumAck()
	ack.ECE = ece
	ack.EchoTS = echo
	return ack
}

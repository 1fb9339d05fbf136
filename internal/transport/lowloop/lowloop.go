// Package lowloop is PPT's low-priority control loop (§3) factored out
// as a building block, the way appendix B of the paper proposes: any
// window-based transport can bolt it on by providing its send frontier,
// current window and RTT estimate, and by choosing when to open a loop
// (DCTCP's α minimum, Swift's delay-below-target, HPCC's inflight-below-
// BDP...). The loop sends opportunistic packets backwards from the flow
// tail, paced at I/RTT, 2:1 ACK-clocked thereafter (EWD), silenced by
// ECE, and self-terminating after two silent RTTs.
//
// The ppt package keeps its own tightly-coupled copy of this logic (it
// also drives identification and tagging); this package exists so the
// Fig 14 delay-based variant and the appendix-B HPCC variant share one
// implementation.
//
// The two copies are not interchangeable. Open here refuses a loop
// while the opportunistic bytes already sent are still unacknowledged
// (inflight >= i/2), and nothing resets inflight on Terminate, so a
// stale backlog keeps vetoing loops until low ACKs drain it. That gate
// is load-bearing: without it, fig14 (500 flows) swift+ppt overall FCT
// rose from 1006.8µs to 1692.5µs at seed 1 and from 1069.8µs to
// 1709.2µs at seed 2 (plain swift: 1204.2µs at seed 1). PPT's copy
// refuses a loop only while one is active.
package lowloop

import (
	"ppt/internal/netsim"
	"ppt/internal/sim"
	"ppt/internal/transport"
)

// Host is the high-priority loop as seen by the low loop.
type Host interface {
	// Frontier is the high loop's next-new-byte offset (snd_nxt).
	Frontier() int64
	// Window is the high loop's current congestion window in bytes.
	Window() float64
	// RTT is the current round-trip estimate.
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

// Loop is one flow's low-priority control loop.
type Loop struct {
	env  *transport.Env
	f    *transport.Flow
	host Host

	active   bool
	tailNext int64
	budget   int64
	paceGap  sim.Time
	pacing   bool
	inflight int64
	oppSent  int64

	deadTimer sim.Timer
}

// New builds an (inactive) loop over the whole flow tail.
func New(env *transport.Env, f *transport.Flow, host Host) *Loop {
	return &Loop{env: env, f: f, host: host, tailNext: f.Size}
}

// Active reports whether a loop is currently open.
func (l *Loop) Active() bool { return l.active }

// OppSent reports total opportunistic payload bytes sent.
func (l *Loop) OppSent() int64 { return l.oppSent }

// Open starts a loop with initial window i paced over one RTT. guarded
// loops (mid-flow re-opens) cap the budget to the gap beyond two high
// windows and are refused while a prior injection is still outstanding.
func (l *Loop) Open(i int64, guarded bool) {
	if i < netsim.MSS || l.active || l.f.Done() {
		return
	}
	if l.tailNext <= l.host.Frontier() {
		return
	}
	if guarded {
		spare := l.tailNext - l.host.Frontier() - 2*int64(l.host.Window())
		if i > spare {
			i = spare
		}
		if i < netsim.MSS {
			return
		}
	}
	if l.inflight >= i/2 {
		return
	}
	l.active = true
	l.budget = i
	pkts := (i + netsim.MSS - 1) / netsim.MSS
	l.paceGap = l.rtt() / sim.Time(pkts)
	l.resetDeadTimer()
	if !l.pacing {
		l.pacing = true
		l.paceOne()
	}
}

func (l *Loop) rtt() sim.Time {
	if r := l.host.RTT(); r > 0 {
		return r
	}
	return l.env.BaseRTT()
}

func (l *Loop) paceOne() {
	if !l.active || l.f.Done() || l.budget <= 0 {
		l.pacing = false
		return
	}
	if !l.send() {
		l.pacing = false
		return
	}
	l.budget -= netsim.MSS
	l.env.Sched().After(l.paceGap, l.paceOne)
}

// send emits one opportunistic packet from the tail, staying one high
// window ahead of the high loop's frontier and skipping delivered
// ranges; false when crossed.
func (l *Loop) send() bool {
	frontier := l.host.Frontier() + int64(l.host.Window())
	skip := l.host.SkipSet()
	for l.tailNext > frontier && skip.Contains(l.tailNext-1, l.tailNext) {
		l.tailNext = skip.ContiguousBack(l.tailNext)
	}
	seq := l.tailNext - netsim.MSS
	if seq < frontier {
		seq = frontier
	}
	if cov := skip.ContiguousFrom(seq); cov > seq {
		seq = cov
	}
	if seq >= l.tailNext {
		return false
	}
	n := int32(l.tailNext - seq)
	pkt := l.f.Src.Data(l.f.ID, l.f.Dst.ID(), seq, n, l.host.LowPrio())
	pkt.ECT = true
	pkt.LowLoop = true
	l.f.Src.Send(pkt)
	l.env.Eff.SentLowPayload += int64(n)
	l.oppSent += int64(n)
	l.inflight += int64(n)
	l.tailNext = seq
	return true
}

// OnLowAck processes a low-priority ACK: records delivered ranges on the
// shared scoreboard and — unless the ACK carries ECE — clocks out one
// new opportunistic packet (the EWD 2:1 halving).
func (l *Loop) OnLowAck(pkt *netsim.Packet) {
	if meta, ok := pkt.Meta.(*transport.AckMeta); ok && meta.LowN > 0 {
		skip := l.host.SkipSet()
		for i := 0; i < meta.LowN; i++ {
			skip.Add(meta.LowSeqs[i], meta.LowSeqs[i]+int64(meta.LowLens[i]))
			l.inflight -= int64(meta.LowLens[i])
		}
		if l.inflight < 0 {
			l.inflight = 0
		}
		l.host.OnSkipUpdate()
	}
	if !l.active {
		return
	}
	l.resetDeadTimer()
	if pkt.ECE {
		return
	}
	l.send()
}

func (l *Loop) resetDeadTimer() {
	l.deadTimer.Stop()
	l.deadTimer = l.env.Sched().After(2*l.rtt(), l.Terminate)
}

// Terminate closes the loop; a later Open starts a fresh one.
func (l *Loop) Terminate() {
	l.active = false
	l.pacing = false
	l.budget = 0
}

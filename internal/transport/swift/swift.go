// Package swift implements a delay-based transport conceptually
// equivalent to Swift [21], as used by the paper's Figure 14 study: the
// congestion window is adjusted purely on measured fabric RTT against a
// target delay (the ns-3 variant the paper describes, which ignores host
// congestion). WithPPT layers the paper's LCP design on top: the sender
// hosts a lowloop.Loop — the loop PPT itself runs, with its 2:1 EWD
// clocking, ECE silencing and two-RTT termination — and opens it
// whenever the measured delay falls below target, with PPT's
// mirror-symmetric flow scheduling.
package swift

import (
	"ppt/internal/netsim"
	"ppt/internal/sim"
	"ppt/internal/transport"
	"ppt/internal/transport/lowloop"
)

// Config tunes the delay-based loop.
type Config struct {
	// WithPPT enables the dual-loop + scheduling variant of Fig 14.
	WithPPT bool
}

// The control law's constants. The target delay is not one of them: it
// follows the fabric (targetDelay).
const (
	// ai is the additive increase per RTT in MSS units.
	ai = 1
	// beta scales multiplicative decrease.
	beta = 0.8
	// maxMD floors a single decrease factor.
	maxMD = 0.5
	// initCwnd is the initial window in bytes (10 MSS).
	initCwnd = 10 * netsim.MSS
)

// targetDelay is the fabric RTT target: 1.5 × the base RTT.
func targetDelay(env *transport.Env) sim.Time { return env.BaseRTT() + env.BaseRTT()/2 }

// Proto is the Swift-like protocol factory.
type Proto struct {
	Cfg Config
}

// Name implements transport.Protocol.
func (p Proto) Name() string {
	if p.Cfg.WithPPT {
		return "swift+ppt"
	}
	return "swift"
}

// StartReceiver implements transport.Protocol.
func (p Proto) StartReceiver(env *transport.Env, f *transport.Flow) {
	rc := &receiver{env: env, f: f}
	rc.Init(env, f)
	f.Dst.Bind(f.ID, true, rc)
}

// StartSender implements transport.Protocol. The WithPPT variant tags a
// flow large by its first syscall, as PPT does; only the sender reads
// the verdict.
func (p Proto) StartSender(env *transport.Env, f *transport.Flow) {
	if p.Cfg.WithPPT && f.FirstCall > 100_000 {
		f.IdentifiedLarge = true
	}
	s := &sender{env: env, f: f, cfg: p.Cfg, target: targetDelay(env), cwnd: initCwnd}
	if p.Cfg.WithPPT {
		s.loop = lowloop.New(env, f, s)
	}
	f.Src.Bind(f.ID, false, s)
	s.trySend()
}

type sender struct {
	env *transport.Env
	f   *transport.Flow
	cfg Config
	// target is the fabric RTT target (targetDelay).
	target sim.Time

	cwnd           float64
	sndUna, sndNxt int64
	skip           transport.IntervalSet
	bytesSent      int64
	lastDecrease   sim.Time
	decreased      bool
	dupAcks        int
	rto            sim.Timer

	// loop is the PPT low-priority loop (WithPPT variant, Fig 14).
	loop      *lowloop.Loop
	loopOpens int
	srtt      sim.Time
}

// Frontier implements lowloop.Host.
func (s *sender) Frontier() int64 { return s.sndNxt }

// Acked implements lowloop.Host.
func (s *sender) Acked() int64 { return s.sndUna }

// Window implements lowloop.Host.
func (s *sender) Window() float64 { return s.cwnd }

// RTT implements lowloop.Host.
func (s *sender) RTT() sim.Time { return s.rtt() }

// LowPrio implements lowloop.Host.
func (s *sender) LowPrio() int8 { return s.prio(true) }

// SkipSet implements lowloop.Host.
func (s *sender) SkipSet() *transport.IntervalSet { return &s.skip }

// OnSkipUpdate implements lowloop.Host.
func (s *sender) OnSkipUpdate() { s.trySend() }

func (s *sender) prio(low bool) int8 {
	if !s.cfg.WithPPT {
		return 0
	}
	var p int8
	switch {
	case s.f.IdentifiedLarge:
		p = 3
	case s.bytesSent < 100_000:
		p = 0
	case s.bytesSent < 1_000_000:
		p = 1
	case s.bytesSent < 10_000_000:
		p = 2
	default:
		p = 3
	}
	if low {
		p += 4
	}
	return p
}

func (s *sender) inflight() int64 {
	out := s.sndNxt - s.sndUna
	if out <= 0 {
		return 0
	}
	return out - s.skip.CoveredIn(s.sndUna, s.sndNxt)
}

func (s *sender) trySend() {
	if s.f.SenderDone() {
		return
	}
	for s.sndNxt < s.f.Size {
		if float64(s.inflight())+netsim.MSS > s.cwnd && s.inflight() > 0 {
			break
		}
		seq := s.skip.ContiguousFrom(s.sndNxt)
		end := seq + netsim.MSS
		if end > s.f.Size {
			end = s.f.Size
		}
		if cov := s.skip.FirstCoveredIn(seq, end); cov < end {
			end = cov
		}
		if seq >= s.f.Size || end <= seq {
			break
		}
		pkt := s.f.Src.Data(s.f.ID, s.f.Dst.ID(), seq, int32(end-seq), s.prio(false))
		s.bytesSent += int64(end - seq)
		s.f.Src.Send(pkt)
		s.sndNxt = end
	}
	s.armRTO()
}

func (s *sender) armRTO() {
	if s.inflight() <= 0 || s.f.SenderDone() {
		s.rto.Stop()
		return
	}
	if s.rto.Pending() {
		return
	}
	s.rto = s.env.Sched().After(s.env.RTO(), s.onRTO)
}

func (s *sender) onRTO() {
	if s.f.SenderDone() || s.inflight() <= 0 {
		return
	}
	s.cwnd = netsim.MSS
	s.sndNxt = s.sndUna
	s.trySend()
	s.rto = s.env.Sched().After(s.env.RTO(), s.onRTO)
}

// Handle implements netsim.Endpoint.
func (s *sender) Handle(pkt *netsim.Packet) {
	if s.f.SenderDone() || pkt.Kind != netsim.Ack {
		return
	}
	if pkt.LowLoop {
		if s.loop != nil {
			s.loop.OnLowAck(pkt)
		}
		return
	}
	var rtt sim.Time
	if pkt.EchoTS > 0 {
		rtt = s.env.Now() - pkt.EchoTS
		if s.srtt == 0 {
			s.srtt = rtt
		} else {
			s.srtt = (7*s.srtt + rtt) / 8
		}
	}
	if pkt.Seq > s.sndUna {
		acked := pkt.Seq - s.sndUna
		s.sndUna = pkt.Seq
		if s.sndUna > s.sndNxt {
			s.sndNxt = s.sndUna
		}
		s.dupAcks = 0
		s.rto.Stop()
		s.adjust(rtt, acked)
	} else if s.inflight() > 0 {
		s.dupAcks++
		if s.dupAcks == 3 {
			s.fastRetransmit()
			s.dupAcks = 0
		}
	}
	s.trySend()
}

// adjust is the Swift control law on fabric delay.
func (s *sender) adjust(rtt sim.Time, acked int64) {
	if rtt == 0 {
		return
	}
	if rtt < s.target {
		// Additive increase, normalized per window.
		s.cwnd += ai * netsim.MSS * float64(acked) / s.cwnd
		if s.loop != nil && !s.loop.Active() {
			// The paper's Fig 14 trigger: delay below target means the
			// fabric has spare capacity for opportunistic packets.
			i := int64(s.env.BDP()) - int64(s.cwnd)
			s.loop.Open(i, s.loopOpens > 0)
			s.loopOpens++
		}
		return
	}
	// Multiplicative decrease at most once per RTT.
	now := s.env.Now()
	if s.decreased && now-s.lastDecrease < s.srtt {
		return
	}
	s.decreased = true
	s.lastDecrease = now
	md := 1 - beta*float64(rtt-s.target)/float64(rtt)
	if md < 1-maxMD {
		md = 1 - maxMD
	}
	s.cwnd *= md
	if s.cwnd < netsim.MSS {
		s.cwnd = netsim.MSS
	}
}

func (s *sender) fastRetransmit() {
	seq := s.skip.ContiguousFrom(s.sndUna)
	end := seq + netsim.MSS
	if end > s.f.Size {
		end = s.f.Size
	}
	if end <= seq {
		return
	}
	pkt := s.f.Src.Data(s.f.ID, s.f.Dst.ID(), seq, int32(end-seq), s.prio(false))
	pkt.Retrans = true
	s.f.Src.Send(pkt)
	s.cwnd /= 2
	if s.cwnd < netsim.MSS {
		s.cwnd = netsim.MSS
	}
}

func (s *sender) rtt() sim.Time {
	if s.srtt > 0 {
		return s.srtt
	}
	return s.env.BaseRTT()
}

// receiver echoes send timestamps on per-packet cumulative ACKs; with
// WithPPT, its lowloop half also acknowledges the opportunistic packets.
type receiver struct {
	lowloop.Receiver
	env *transport.Env
	f   *transport.Flow
}

// Handle implements netsim.Endpoint.
func (rc *receiver) Handle(pkt *netsim.Packet) {
	if pkt.Kind != netsim.Data {
		return
	}
	if rc.Deliver(pkt) {
		ack := rc.f.Dst.Ctrl(netsim.Ack, rc.f.ID, rc.f.Src.ID(), 0)
		ack.Seq = rc.R.CumAck()
		ack.EchoTS = pkt.SentAt
		rc.f.Dst.Send(ack)
	}
	if rc.R.Complete() {
		rc.env.Complete(rc.f)
	}
}

// Package swift implements a delay-based transport conceptually
// equivalent to Swift [21], as used by the paper's Figure 14 study: the
// congestion window is adjusted purely on measured fabric RTT against a
// target delay (the ns-3 variant the paper describes, which ignores host
// congestion). The delay law runs over dctcp's window sender, which
// owns the send loop, the RTO and loss recovery. WithPPT layers the
// paper's LCP design on top: the window sender hosts a lowloop.Loop —
// the loop PPT itself runs, with its 2:1 EWD clocking, ECE silencing
// and two-RTT termination — paced on Swift's own RTT estimate, and Swift
// opens it whenever the measured delay falls below target, with PPT's
// classifier and mirror-symmetric flow scheduling.
package swift

import (
	"ppt/internal/netsim"
	"ppt/internal/sim"
	"ppt/internal/transport"
	"ppt/internal/transport/dctcp"
	"ppt/internal/transport/lowloop"
	"ppt/internal/transport/ppt"
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
	f.Dst.Bind(f.ID, true, lowloop.GetReceiver(env, f))
}

// StartSender implements transport.Protocol. The WithPPT variant tags a
// flow large by its first syscall, as PPT does; only the sender reads
// the verdict.
func (p Proto) StartSender(env *transport.Env, f *transport.Flow) {
	if p.Cfg.WithPPT && ppt.Large(f) {
		f.IdentifiedLarge = true
	}
	s := newSender(env, f, p.Cfg.WithPPT)
	f.Src.Bind(f.ID, false, s)
	s.Launch()
}

// sender is Swift's delay law over the window sender.
type sender struct {
	dctcp.Sender
	// target is the fabric RTT target (targetDelay).
	target sim.Time
	// srtt is Swift's own RTT estimate: zero until the first sample,
	// which it takes whole.
	srtt         sim.Time
	lastDecrease sim.Time
	decreased    bool
	// loopOpens counts the WithPPT variant's loop openings (Fig 14).
	loopOpens int
}

func newSender(env *transport.Env, f *transport.Flow, withPPT bool) *sender {
	s := &sender{target: targetDelay(env)}
	cfg := dctcp.Config{NoECN: true}
	if withPPT {
		cfg.Prio = s.tag
	}
	s.Init(env, f, cfg)
	s.Law = s
	if withPPT {
		s.Low = lowloop.New(env, f, s)
	}
	return s
}

// tag is PPT's high-loop priority (§4.2).
func (s *sender) tag(bytesSent int64) int8 { return ppt.Tag(s.F, bytesSent) }

// RTT implements lowloop.Host with Swift's own estimate; the loop reads
// 0 (no sample yet) as the base RTT.
func (s *sender) RTT() sim.Time { return s.srtt }

// Ack implements dctcp.Law: fold the RTT sample into srtt and adjust the
// window on every ACK that acknowledges new data.
func (s *sender) Ack(pkt *netsim.Packet, acked int64) {
	var rtt sim.Time
	if pkt.EchoTS > 0 {
		rtt = s.Env.Now() - pkt.EchoTS
		if s.srtt == 0 {
			s.srtt = rtt
		} else {
			s.srtt = (7*s.srtt + rtt) / 8
		}
	}
	if acked > 0 {
		s.adjust(rtt, acked)
	}
}

// Loss implements dctcp.Law: a fast retransmit halves the window, a
// timeout restarts it at one packet.
func (s *sender) Loss(timeout bool) {
	if timeout {
		s.Cwnd = netsim.MSS
		return
	}
	s.Cwnd = max(s.Cwnd/2, netsim.MSS)
}

// adjust is the Swift control law on fabric delay.
func (s *sender) adjust(rtt sim.Time, acked int64) {
	if rtt == 0 {
		return
	}
	if rtt < s.target {
		// Additive increase, normalized per window.
		s.Cwnd += ai * netsim.MSS * float64(acked) / s.Cwnd
		if s.Low != nil && !s.Low.Active() {
			// The paper's Fig 14 trigger: delay below target means the
			// fabric has spare capacity for opportunistic packets.
			i := int64(s.Env.BDP()) - int64(s.Cwnd)
			s.Low.Open(i, s.loopOpens > 0)
			s.loopOpens++
		}
		return
	}
	// Multiplicative decrease at most once per RTT.
	now := s.Env.Now()
	if s.decreased && now-s.lastDecrease < s.srtt {
		return
	}
	s.decreased = true
	s.lastDecrease = now
	md := 1 - beta*float64(rtt-s.target)/float64(rtt)
	if md < 1-maxMD {
		md = 1 - maxMD
	}
	s.Cwnd *= md
	if s.Cwnd < netsim.MSS {
		s.Cwnd = netsim.MSS
	}
}

// Package dctcp implements Data Center TCP [5]: slow start, congestion
// avoidance, per-window ECN-fraction estimation (the α estimator of
// Equation 1), proportional window reduction, fast retransmit, and
// go-back-N timeout recovery.
//
// Its Sender is the repository's one window sender. It owns the
// mechanics every window-based transport shares: the send loop over a
// Skip set, in-flight accounting, the RTO, cumulative- and duplicate-ACK
// bookkeeping, fast retransmit and go-back-N. A Law moves the window.
// DCTCP's α law is the default; Swift's delay law and HPCC's telemetry
// law embed the sender and replace it. Every window transport binds
// lowloop's receiver.
//
// The sender is also the one host of the low-priority loop
// (lowloop.Host): ppt, swift+ppt, hpcc+ppt, RC3 and the §2.3 oracle hang
// a lowloop.Loop on it, whose low ACKs it dispatches and whose timers it
// stops with its own.
// PPT runs the sender unchanged as its high-priority control loop (HCP),
// supplying a priority tagger and an α hook for the intermittent LCP
// initialization of §3.1.
package dctcp

import (
	"ppt/internal/netsim"
	"ppt/internal/sim"
	"ppt/internal/transport"
	"ppt/internal/transport/lowloop"
)

// Config tunes a sender.
type Config struct {
	// Prio tags data packets given cumulative bytes sent (default P0).
	Prio func(bytesSent int64) int8
	// NoECN disables ECT marking (pure loss-based TCP behaviour).
	NoECN bool
}

// g is the α estimation gain of Equation 1.
const g = 1.0 / 16

// InitCwnd is the initial congestion window in bytes: 10 MSS, the
// modern Linux default the paper's TCP-10 row cites.
const InitCwnd = 10 * netsim.MSS

// defaultPrio is the zero-config tagger; a package-level func so Init
// does not allocate a closure per flow.
func defaultPrio(int64) int8 { return 0 }

// Law moves a Sender's congestion window. The sender calls it after its
// own bookkeeping and sends whatever the new window allows afterwards.
type Law interface {
	// Ack runs on every high-loop ACK; acked is the bytes it newly
	// acknowledged (0 for one that did not advance the cumulative ACK).
	Ack(pkt *netsim.Packet, acked int64)
	// Loss runs on a fast retransmit (timeout false) and on an RTO
	// (timeout true), before the go-back-N resend.
	Loss(timeout bool)
}

// Sender is the window sender for one flow; its Law (DCTCP's unless an
// embedding transport replaces it) moves the window.
type Sender struct {
	transport.PoolNode

	Env *transport.Env
	F   *transport.Flow
	C   Config

	Cwnd     float64 // bytes
	Ssthresh float64
	SndUna   int64
	SndNxt   int64
	Alpha    float64

	// Wmax is the largest congestion window observed after the flow
	// left slow start (§3.1 footnote 3: only congestion-avoidance
	// windows count toward the LCP fill target).
	Wmax     float64
	ExitedSS bool

	// PeakCwnd is the largest window regardless of phase — the "MW"
	// recorded by the hypothetical-DCTCP oracle of §2.3.
	PeakCwnd float64

	// Skip marks bytes delivered out of band (PPT's LCP SACK
	// scoreboard); the sender never (re)transmits them.
	Skip *transport.IntervalSet

	// BytesSent counts payload bytes transmitted (for tagging).
	BytesSent int64

	// SRTT is a smoothed RTT from ACK echo timestamps; starts at the
	// fabric base RTT.
	SRTT sim.Time

	// Law moves the window; Init sets DCTCP's, and an embedding
	// transport replaces it after Init.
	Law Law
	// OnAlpha fires after each per-window α update (PPT case-2 hook).
	OnAlpha func(alpha float64)
	// Low is the low-priority loop the sender hosts, or nil; an embedding
	// transport sets it after Init.
	Low *lowloop.Loop

	// telemetry attaches an INT record slice to every data packet: the
	// sender's NIC gathers in-band telemetry (HPCC's fabrics).
	telemetry bool

	windowEnd   int64 // α window boundary: next update when SndUna passes it
	ackedInWin  int64
	markedInWin int64

	dupAcks int
	rto     sim.Timer
	// rtoFn is onRTO bound once, by the first Init: evaluating the method
	// value inline would allocate a fresh closure on every (re)arm.
	rtoFn func()

	// pooled marks senders owned by the Env pool (built by StartSender);
	// Recycle no-ops for plain NewSender structs, which callers like the
	// MW oracle retain past completion.
	pooled bool
}

// NewSender builds (but does not launch) a sender.
func NewSender(env *transport.Env, f *transport.Flow, cfg Config) *Sender {
	s := &Sender{}
	s.Init(env, f, cfg)
	return s
}

// Init (re)targets a sender at a flow, resetting every piece of
// congestion state in place and selecting DCTCP's law. It is what makes
// Sender pool-reusable and embeddable by value: the first Init allocates
// the Skip set and binds the RTO callback, and a recycled struct after
// Init is indistinguishable from a fresh NewSender result (the Skip set
// keeps its backing array, emptied).
func (s *Sender) Init(env *transport.Env, f *transport.Flow, cfg Config) {
	if s.Skip == nil {
		s.Skip = &transport.IntervalSet{}
		s.rtoFn = s.onRTO
	}
	if cfg.Prio == nil {
		cfg.Prio = defaultPrio
	}
	s.Env = env
	s.F = f
	s.C = cfg
	s.Cwnd = InitCwnd
	s.Ssthresh = 1 << 40
	s.SndUna = 0
	s.SndNxt = 0
	s.Alpha = 0
	s.Wmax = 0
	s.ExitedSS = false
	s.PeakCwnd = 0
	s.Skip.Reset()
	s.BytesSent = 0
	s.SRTT = env.BaseRTT()
	s.Law = (*alphaLaw)(s)
	s.OnAlpha = nil
	s.Low = nil
	s.telemetry = f.Src.NIC().Config().EnableINT
	s.windowEnd = 0
	s.ackedInWin = 0
	s.markedInWin = 0
	s.dupAcks = 0
	s.rto = sim.Timer{}
}

// StopTimers cancels every pending timer whose callback references the
// sender or its loop — the precondition for recycling it (or its flow).
func (s *Sender) StopTimers() {
	s.stopRTO()
	if s.Low != nil {
		s.Low.StopTimers()
	}
}

// Launch begins transmission.
func (s *Sender) Launch() {
	s.windowEnd = 0
	s.TrySend()
}

// InFlight returns the unacknowledged bytes not covered by Skip.
func (s *Sender) InFlight() int64 {
	out := s.SndNxt - s.SndUna
	if out <= 0 {
		return 0
	}
	return out - s.Skip.CoveredIn(s.SndUna, s.SndNxt)
}

// InSlowStart reports the congestion phase.
func (s *Sender) InSlowStart() bool { return s.Cwnd < s.Ssthresh }

// nextSeg returns the next [seq, end) to transmit starting the scan at
// `from`, skipping Skip-covered bytes; ok is false when nothing remains.
func (s *Sender) nextSeg(from int64) (seq, end int64, ok bool) {
	seq = from
	for seq < s.F.Size {
		// Skip over out-of-band-delivered bytes.
		next := s.Skip.ContiguousFrom(seq)
		if next > seq {
			seq = next
			continue
		}
		end = seq + netsim.MSS
		if end > s.F.Size {
			end = s.F.Size
		}
		// Truncate at the next Skip-covered byte.
		if cov := s.Skip.FirstCoveredIn(seq, end); cov < end {
			end = cov
		}
		return seq, end, true
	}
	return 0, 0, false
}

// TrySend transmits while the window allows.
func (s *Sender) TrySend() {
	if s.F.SenderDone() {
		s.stopRTO()
		return
	}
	for {
		if float64(s.InFlight())+netsim.MSS > s.Cwnd && s.InFlight() > 0 {
			break
		}
		seq, end, ok := s.nextSeg(s.SndNxt)
		if !ok {
			break
		}
		s.transmit(seq, int32(end-seq), false)
		s.SndNxt = end
	}
	s.armRTO()
}

func (s *Sender) transmit(seq int64, n int32, retrans bool) {
	pkt := s.F.Src.Data(s.F.ID, s.F.Dst.ID(), seq, n, s.C.Prio(s.BytesSent))
	pkt.ECT = !s.C.NoECN
	pkt.Retrans = retrans
	if s.telemetry {
		pkt.INT = s.F.Src.Pool().GetINT()
	}
	s.BytesSent += int64(n)
	s.F.Src.Send(pkt)
}

func (s *Sender) armRTO() {
	if s.InFlight() <= 0 || s.F.SenderDone() {
		s.stopRTO()
		return
	}
	if s.rto.Pending() {
		return
	}
	s.rto = s.Env.Sched().After(s.Env.RTO(), s.rtoFn)
}

func (s *Sender) resetRTO() {
	s.stopRTO()
	s.armRTO()
}

func (s *Sender) stopRTO() {
	s.rto.Stop()
	s.rto = sim.Timer{}
}

func (s *Sender) onRTO() {
	if s.F.SenderDone() || s.InFlight() <= 0 {
		return
	}
	// Go-back-N: rewind and resend from the cumulative ACK.
	s.Law.Loss(true)
	s.SndNxt = s.SndUna
	s.dupAcks = 0
	seq, end, ok := s.nextSeg(s.SndUna)
	if ok {
		s.transmit(seq, int32(end-seq), true)
		s.SndNxt = end
	}
	s.rto = s.Env.Sched().After(s.Env.RTO(), s.rtoFn)
}

// Handle implements netsim.Endpoint for the sender side: high-loop ACKs
// run the sender, low-loop ACKs the loop it hosts.
func (s *Sender) Handle(pkt *netsim.Packet) {
	if s.F.SenderDone() || pkt.Kind != netsim.Ack {
		return
	}
	if !pkt.LowLoop {
		s.ProcessAck(pkt)
	} else if s.Low != nil {
		s.Low.OnLowAck(pkt)
	}
}

// ProcessAck runs the sender's bookkeeping and its law for one
// high-priority ACK, then sends what the window allows.
func (s *Sender) ProcessAck(pkt *netsim.Packet) {
	cum := pkt.Seq
	if pkt.EchoTS > 0 {
		rtt := s.Env.Now() - pkt.EchoTS
		s.SRTT = (7*s.SRTT + rtt) / 8
	}
	var acked int64
	if cum > s.SndUna {
		acked = cum - s.SndUna
		s.SndUna = cum
		// Crossed paths with the low loop (§5.2): the receiver's
		// cumulative ACK can run past everything HCP ever sent.
		if s.SndUna > s.SndNxt {
			s.SndNxt = s.SndUna
		}
		s.dupAcks = 0
		s.resetRTO()
	} else if s.InFlight() > 0 {
		s.dupAcks++
		if s.dupAcks == 3 {
			s.fastRetransmit()
		}
	}
	s.Law.Ack(pkt, acked)
	s.TrySend()
}

// Frontier implements lowloop.Host.
func (s *Sender) Frontier() int64 { return s.SndNxt }

// Acked implements lowloop.Host.
func (s *Sender) Acked() int64 { return s.SndUna }

// Window implements lowloop.Host.
func (s *Sender) Window() float64 { return s.Cwnd }

// RTT implements lowloop.Host.
func (s *Sender) RTT() sim.Time { return s.SRTT }

// LowPrio implements lowloop.Host: the high-loop tag's mirror (§4.2).
func (s *Sender) LowPrio() int8 { return s.C.Prio(s.BytesSent) + 4 }

// SkipSet implements lowloop.Host.
func (s *Sender) SkipSet() *transport.IntervalSet { return s.Skip }

// OnSkipUpdate implements lowloop.Host: skipped bytes leave the in-flight
// count, so the window may admit a send right now.
func (s *Sender) OnSkipUpdate() { s.TrySend() }

func (s *Sender) fastRetransmit() {
	seq, end, ok := s.nextSeg(s.SndUna)
	if !ok {
		return
	}
	s.transmit(seq, int32(end-seq), true)
	s.Law.Loss(false)
	s.resetRTO()
}

// alphaLaw is DCTCP's law over the sender's own α state: slow start and
// congestion avoidance, Equation 1's per-window α with its proportional
// cut, and a halving on loss.
type alphaLaw Sender

// Ack implements Law.
func (l *alphaLaw) Ack(pkt *netsim.Packet, acked int64) {
	s := (*Sender)(l)
	if acked > 0 {
		s.growWindow(acked, pkt.ECE)
	} else if s.InFlight() > 0 {
		s.countMarks(netsim.MSS, pkt.ECE) // dup ACK still echoes marking state
	}
	s.maybeUpdateAlpha()
}

// Loss implements Law: a timeout slow-starts from one segment and
// restarts the α window; a fast retransmit halves the window.
func (l *alphaLaw) Loss(timeout bool) {
	s := (*Sender)(l)
	if timeout {
		s.Ssthresh = max(s.Cwnd/2, netsim.MSS)
		s.Cwnd = netsim.MSS
		s.windowEnd = s.SndUna
		s.ackedInWin, s.markedInWin = 0, 0
		return
	}
	s.Ssthresh = max(s.Cwnd/2, 2*netsim.MSS)
	s.Cwnd = s.Ssthresh
	s.markSlowStartExit()
}

func (s *Sender) growWindow(acked int64, ece bool) {
	s.countMarks(acked, ece)
	if s.InSlowStart() {
		s.Cwnd += float64(acked)
	} else {
		s.Cwnd += netsim.MSS * float64(acked) / s.Cwnd
	}
	s.noteWmax()
}

func (s *Sender) countMarks(acked int64, ece bool) {
	s.ackedInWin += acked
	if ece {
		s.markedInWin += acked
	}
}

// maybeUpdateAlpha applies Equation 1 once per window of data.
func (s *Sender) maybeUpdateAlpha() {
	if s.SndUna < s.windowEnd {
		return
	}
	if s.ackedInWin > 0 {
		f := float64(s.markedInWin) / float64(s.ackedInWin)
		s.Alpha = (1-g)*s.Alpha + g*f
		if s.markedInWin > 0 {
			// ECN window reduction: cwnd *= (1 - α/2).
			s.Cwnd *= 1 - s.Alpha/2
			if s.Cwnd < netsim.MSS {
				s.Cwnd = netsim.MSS
			}
			s.Ssthresh = s.Cwnd
			s.markSlowStartExit()
		}
		if s.OnAlpha != nil {
			s.OnAlpha(s.Alpha)
		}
	}
	s.ackedInWin, s.markedInWin = 0, 0
	s.windowEnd = s.SndNxt
}

func (s *Sender) markSlowStartExit() {
	if !s.ExitedSS {
		s.ExitedSS = true
	}
	s.noteWmax()
}

func (s *Sender) noteWmax() {
	if s.Cwnd > s.PeakCwnd {
		s.PeakCwnd = s.Cwnd
	}
	if s.ExitedSS && s.Cwnd > s.Wmax {
		s.Wmax = s.Cwnd
	}
}

var senderPool = transport.NewPoolKey("dctcp.sender")

func newIdleSender() *Sender { return &Sender{} }

// GetSender returns an initialized sender from env's pool; it returns
// to the pool via Recycle when its flow completes.
func GetSender(env *transport.Env, f *transport.Flow, cfg Config) *Sender {
	s := transport.PoolFor(env, senderPool, newIdleSender).Get()
	s.Init(env, f, cfg)
	s.pooled = true
	return s
}

// Recycle implements transport.EndpointRecycler: stop the RTO and the
// hosted loop's timers, and return pool-owned senders to the freelist.
// Senders built with NewSender (tests, the MW oracle, embedding
// transports) are left alone — their creators may still hold them.
func (s *Sender) Recycle(env *transport.Env) {
	s.StopTimers()
	if !s.pooled {
		return
	}
	s.pooled = false
	s.F = nil
	s.OnAlpha = nil
	transport.PoolFor(env, senderPool, newIdleSender).Put(s)
}

// Proto is the plain-DCTCP protocol factory.
type Proto struct {
	Cfg Config
}

// Name implements transport.Protocol: "tcp10" without ECN (Table 1's
// TCP-10 row), "dctcp" otherwise.
func (p Proto) Name() string {
	if p.Cfg.NoECN {
		return "tcp10"
	}
	return "dctcp"
}

// StartReceiver implements transport.Protocol: bind a pooled receiver.
func (p Proto) StartReceiver(env *transport.Env, f *transport.Flow) {
	f.Dst.Bind(f.ID, true, lowloop.GetReceiver(env, f))
}

// StartSender implements transport.Protocol: build, bind and launch the
// sender.
func (p Proto) StartSender(env *transport.Env, f *transport.Flow) {
	s := GetSender(env, f, p.Cfg)
	f.Src.Bind(f.ID, false, s)
	s.Launch()
}

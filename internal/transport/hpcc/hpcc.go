// Package hpcc implements HPCC [25]: high-precision congestion control
// driven by in-band network telemetry. Every data packet gathers per-hop
// (qlen, txBytes, ts, rate) records; the receiver echoes them on ACKs;
// the sender estimates per-hop normalized inflight U and sets
//
//	W = W_c / (U/η) + W_AI            (multiplicative, U ≥ η)
//	W = W + W_AI                      (additive, up to maxStage stages)
//
// updating the reference window W_c once per RTT. The law runs over
// dctcp's window sender, which owns the send loop, the RTO and loss
// recovery, and attaches the telemetry slice when the NIC gathers INT.
// Run HPCC on a fabric built with topo.Config.EnableINT = true.
package hpcc

import (
	"ppt/internal/netsim"
	"ppt/internal/sim"
	"ppt/internal/transport"
	"ppt/internal/transport/dctcp"
	"ppt/internal/transport/lowloop"
)

// HPCC's constants. The initial window is not one of them: it is the
// fabric BDP, which newSender reads from the Env.
const (
	// eta is the target utilization η.
	eta = 0.95
	// maxStage bounds consecutive additive-increase stages.
	maxStage = 5
	// wAI is the additive increase in bytes per adjustment: MSS/2 (724
	// bytes), a fraction of a packet, per the paper's guidance for many
	// concurrent flows.
	wAI = netsim.MSS / 2
)

// Proto is the HPCC protocol factory.
type Proto struct{}

// Name implements transport.Protocol.
func (Proto) Name() string { return "hpcc" }

// StartReceiver implements transport.Protocol.
func (Proto) StartReceiver(env *transport.Env, f *transport.Flow) {
	f.Dst.Bind(f.ID, true, lowloop.GetReceiver(env, f))
}

// StartSender implements transport.Protocol.
func (Proto) StartSender(env *transport.Env, f *transport.Flow) {
	s := &sender{}
	s.init(env, f, s)
	f.Src.Bind(f.ID, false, s)
	s.Launch()
}

// sender is HPCC's telemetry law over the window sender, whose Cwnd is
// the current window W.
type sender struct {
	dctcp.Sender

	wc           float64 // reference window W_c
	incStage     int
	lastWcUpdate sim.Time
	prevINT      []netsim.INTHop
}

// init targets s at f under law: HPCC starts at line rate, with
// W = W_c = BDP.
func (s *sender) init(env *transport.Env, f *transport.Flow, law dctcp.Law) {
	s.Init(env, f, dctcp.Config{NoECN: true})
	s.Law = law
	s.Cwnd = float64(env.BDP())
	s.wc = s.Cwnd
}

// Ack implements dctcp.Law: react to the telemetry the ACK echoes.
func (s *sender) Ack(pkt *netsim.Packet, _ int64) { s.echo(pkt) }

// Loss implements dctcp.Law: a timeout restarts from one packet; a fast
// retransmit leaves the window to telemetry.
func (s *sender) Loss(timeout bool) {
	if timeout {
		s.Cwnd = netsim.MSS
	}
}

// echo runs the law on the telemetry pkt echoes, if any, and returns U
// (0 without telemetry or before a baseline exists). react copies what
// it keeps (prevINT), so the array returns to the pool with the ACK.
func (s *sender) echo(pkt *netsim.Packet) float64 {
	if len(pkt.INT) == 0 {
		return 0
	}
	return s.react(pkt.INT)
}

// react runs the HPCC window computation against echoed telemetry and
// returns the utilization U it estimated.
func (s *sender) react(cur []netsim.INTHop) float64 {
	u := s.reactU(cur)
	if u == 0 {
		return 0
	}
	if u >= eta || s.incStage >= maxStage {
		s.Cwnd = s.wc/(u/eta) + wAI
		s.maybeUpdateWc(true)
	} else {
		s.Cwnd = s.wc + wAI
		s.maybeUpdateWc(false)
	}
	if s.Cwnd < netsim.MSS {
		s.Cwnd = netsim.MSS
	}
	return u
}

// reactU estimates the maximum per-hop normalized inflight U from two
// consecutive telemetry snapshots (0 until a baseline exists).
func (s *sender) reactU(cur []netsim.INTHop) float64 {
	if s.prevINT == nil || len(s.prevINT) != len(cur) {
		s.prevINT = append([]netsim.INTHop(nil), cur...)
		return 0
	}
	baseT := s.Env.BaseRTT().Seconds()
	u := 0.0
	for j := range cur {
		dt := (cur[j].TS - s.prevINT[j].TS).Seconds()
		if dt <= 0 {
			continue
		}
		bps := float64(cur[j].Rate) / 8 // bytes per second
		qlen := float64(min(cur[j].QLen, s.prevINT[j].QLen))
		txRate := float64(cur[j].TxBytes-s.prevINT[j].TxBytes) / dt
		uj := qlen/(bps*baseT) + txRate/bps
		if uj > u {
			u = uj
		}
	}
	s.prevINT = append(s.prevINT[:0], cur...)
	return u
}

// maybeUpdateWc commits the reference window once per base RTT.
func (s *sender) maybeUpdateWc(mi bool) {
	now := s.Env.Now()
	if now-s.lastWcUpdate < s.Env.BaseRTT() {
		return
	}
	s.lastWcUpdate = now
	s.wc = s.Cwnd
	if mi {
		s.incStage = 0
	} else {
		s.incStage++
	}
}

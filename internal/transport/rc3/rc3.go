// Package rc3 implements Recursively Cautious Congestion Control [30] as
// the paper characterizes it: the primary loop is unchanged (DCTCP here,
// as in the paper's evaluation), and a second low-priority loop starts
// transmitting the flow from its tail immediately at flow start, keeping
// a full BDP in flight every RTT across exponentially sized priority
// levels, with no ECN reaction and no attempt to protect the primary
// loop. The loop runs until it crosses the primary loop's frontier.
//
// The low loop is lowloop's under RC3's policy, with the receiver on a
// 1:1 clock; only the open at flow start and the levels are RC3's own.
//
// This aggressive behaviour — contrasted with PPT's intermittent,
// exponentially decreasing, ECN-guarded loop — is what Figures 8–13 and
// 24 measure.
package rc3

import (
	"ppt/internal/netsim"
	"ppt/internal/transport"
	"ppt/internal/transport/dctcp"
	"ppt/internal/transport/lowloop"
)

// levelBase is the packet count of the first low-priority level; each
// subsequent level is 10× larger, per RC3.
const levelBase = 40

// policy is RC3's low loop in lowloop's terms: the initial BDP goes out
// back to back, every low ACK clocks out a packet ("fills up the entire
// BDP for every RTT") and nothing but crossing the primary loop ends it.
var policy = lowloop.Policy{Burst: true, Blind: true, AtFrontier: true}

// Proto is the RC3 protocol factory.
type Proto struct{}

// Name implements transport.Protocol.
func (Proto) Name() string { return "rc3" }

// StartReceiver implements transport.Protocol: a pooled receiver on
// RC3's 1:1 clock.
func (Proto) StartReceiver(env *transport.Env, f *transport.Flow) {
	rc := lowloop.GetReceiver(env, f)
	rc.AckEach = true
	f.Dst.Bind(f.ID, true, rc)
}

// StartSender implements transport.Protocol: launch the primary loop and
// open the one low loop, a BDP from the tail.
func (Proto) StartSender(env *transport.Env, f *transport.Flow) {
	s := newSender(env, f)
	f.Src.Bind(f.ID, false, s)
	s.Launch()
	s.lcp.Open(int64(env.BDP()), false)
}

// sender is DCTCP's window sender hosting a low loop under RC3's policy;
// it overrides only the loop's tag.
type sender struct {
	dctcp.Sender
	lcp lowloop.Loop
}

func newSender(env *transport.Env, f *transport.Flow) *sender {
	s := &sender{}
	s.Init(env, f, dctcp.Config{})
	s.Low = &s.lcp
	s.lcp.Init(env, f, s, policy)
	return s
}

// LowPrio implements lowloop.Host: RC3's exponential levels over the
// low-loop packets sent so far.
func (s *sender) LowPrio() int8 { return level(s.lcp.OppSent() / netsim.MSS) }

// level maps cumulative low-loop packets sent to the RC3 priority
// levels: the first levelBase packets at P4, 10× that at P5, 10× again
// at P6, the remainder at P7.
func level(pktsSent int64) int8 {
	n := int64(levelBase)
	for p := int8(4); p < 7; p++ {
		if pktsSent < n {
			return p
		}
		n *= 10
	}
	return 7
}

// Package pias implements PIAS [9]: information-agnostic flow scheduling
// on top of DCTCP. Every flow starts at the highest priority and is
// demoted through the switch priority queues as it sends more bytes,
// approximating least-attained-service without knowing flow sizes.
//
// PIAS uses all eight priorities (it has no low-priority loop), with
// demotion thresholds tuned per workload; the thresholds here follow the
// roughly-geometric spacing the PIAS paper derives for heavy-tailed
// datacenter workloads.
package pias

import (
	"ppt/internal/transport"
	"ppt/internal/transport/dctcp"
	"ppt/internal/transport/lowloop"
)

// thresholds are the bytes-sent boundaries that demote a flow through
// P0..P7.
var thresholds = [7]int64{
	50_000, 100_000, 200_000, 500_000, 1_000_000, 5_000_000, 20_000_000,
}

// prio is the sender's tagger: the flow's priority given the bytes it
// has sent.
func prio(sent int64) int8 {
	for i, t := range thresholds {
		if sent < t {
			return int8(i)
		}
	}
	return 7
}

// Proto is the PIAS protocol factory.
type Proto struct{}

// Name implements transport.Protocol.
func (Proto) Name() string { return "pias" }

// StartReceiver implements transport.Protocol.
func (Proto) StartReceiver(env *transport.Env, f *transport.Flow) {
	f.Dst.Bind(f.ID, true, lowloop.GetReceiver(env, f))
}

// StartSender implements transport.Protocol.
func (Proto) StartSender(env *transport.Env, f *transport.Flow) {
	s := dctcp.NewSender(env, f, dctcp.Config{Prio: prio})
	f.Src.Bind(f.ID, false, s)
	s.Launch()
}

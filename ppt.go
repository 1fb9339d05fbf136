// Package ppt is the public API of this repository: a packet-level
// reproduction of "PPT: A Pragmatic Transport for Datacenters"
// (SIGCOMM 2024), including the PPT transport itself (dual-loop rate
// control + buffer-aware flow scheduling), every baseline the paper
// compares against (DCTCP, RC3, PIAS, HPCC, Homa, Aeolus, NDP, and a
// Swift-like delay-based transport), the leaf-spine/testbed fabrics, the
// published workloads, and one registered experiment per table and
// figure of the paper's evaluation.
//
// Two entry points:
//
//   - Comparison: Run simulates one transport over one workload/fabric
//     and returns the paper's FCT breakdown.
//   - Reproduction: RunExperiment regenerates a specific table or
//     figure (see ListExperiments, or `pptsim -list`).
package ppt

import (
	"ppt/internal/bufaware"
	"ppt/internal/exp"
	"ppt/internal/stats"
	"ppt/internal/workload"
)

// Transport names accepted by Config.Transport.
const (
	TransportPPT      = "ppt"
	TransportDCTCP    = "dctcp"
	TransportRC3      = "rc3"
	TransportPIAS     = "pias"
	TransportHPCC     = "hpcc"
	TransportHoma     = "homa"
	TransportAeolus   = "aeolus"
	TransportNDP      = "ndp"
	TransportSwift    = "swift"
	TransportSwiftPPT = "swift+ppt"
	// Extensions beyond the paper's evaluation:
	TransportHPCCPPT     = "hpcc+ppt"    // appendix B: HPCC + PPT's low loop
	TransportTCP10       = "tcp10"       // Table 1: TCP with initial window 10
	TransportHalfback    = "halfback"    // Table 1: Halfback [23]
	TransportExpressPass = "expresspass" // Table 1: ExpressPass [11]
)

// Transports lists every supported transport name.
func Transports() []string {
	return []string{
		TransportPPT, TransportDCTCP, TransportRC3, TransportPIAS,
		TransportHPCC, TransportHoma, TransportAeolus, TransportNDP,
		TransportSwift, TransportSwiftPPT, TransportHPCCPPT,
		TransportTCP10, TransportHalfback, TransportExpressPass,
	}
}

// Topology names accepted by Config.Topology.
const (
	// TopologyTestbed is the paper's CloudLab profile: 15 hosts on one
	// 10G switch, 80µs RTT, 50MB shared buffer (Table 3).
	TopologyTestbed = "testbed"
	// TopologySim is a 3-leaf/2-spine 40/100G oversubscribed leaf-spine
	// slice of the paper's §6.2 fabric (24 hosts).
	TopologySim = "sim"
	// TopologySimFull is the paper's full 144-host, 9-leaf, 4-spine
	// fabric.
	TopologySimFull = "sim-full"
	// TopologyFast is the 100/400G variant (Fig 22).
	TopologyFast = "fast"
	// TopologyNonOversubscribed is the 1:1 10/40G fabric (appendix E).
	TopologyNonOversubscribed = "non-oversubscribed"
)

// Workload names accepted by Config.Workload: "websearch",
// "datamining", "memcached-w1", "memcached-etc", "youtube-http".
func Workloads() []string {
	return []string{"websearch", "datamining", "memcached-w1", "memcached-etc", "youtube-http"}
}

// Config describes one simulation run: Transport is one of
// Transports() (default "ppt"), Topology one of the Topology* names
// (default TopologySim), Workload one of Workloads() (default
// "websearch"); Load (default 0.5), Flows (default 500) and Seed
// (default 1) scale it; Incast > 0 switches to an N-to-1 pattern with
// that many senders; SendBuf models the TCP send buffer in bytes for
// PPT's identification and LCP reach (0 = unbounded, the paper's 2GB).
type Config = exp.Config

// Summary re-exports the FCT breakdown every experiment reports.
type Summary = stats.Summary

// Result re-exports a rendered experiment result.
type Result = exp.Result

// Options re-exports experiment options.
type Options = exp.Options

// Run simulates cfg to completion and returns the FCT summary.
func Run(cfg Config) (Summary, error) {
	sum, _, err := exp.RunCell(cfg)
	return sum, err
}

// RunExperiment regenerates one of the paper's tables or figures by id
// (e.g. "fig12", "table2", "ident").
func RunExperiment(id string, opts Options) (*Result, error) {
	return exp.RunByID(id, opts)
}

// ListExperiments returns the registered experiment ids and titles.
func ListExperiments() []struct{ ID, Title string } {
	var out []struct{ ID, Title string }
	for _, e := range exp.List() {
		out = append(out, struct{ ID, Title string }{e.ID, e.Title})
	}
	return out
}

// IdentificationAccuracy runs the §4.1 buffer-aware identification
// experiment for the given workload/application pair and returns the
// recall among truly-large flows.
func IdentificationAccuracy(workloadName string, threshold, sendBuf int64, flows int, seed int64) (float64, error) {
	dist, err := workload.ByName(workloadName)
	if err != nil {
		return 0, err
	}
	app := bufaware.Memcached
	if workloadName == "youtube-http" {
		app = bufaware.WebServer
	}
	res := bufaware.Experiment(dist, app, threshold, sendBuf, flows, seed)
	return res.Recall, nil
}

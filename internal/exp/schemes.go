package exp

import (
	"math/rand"

	"ppt/internal/bufaware"
	"ppt/internal/netsim"
	"ppt/internal/sim"
	"ppt/internal/stats"
	"ppt/internal/topo"
	"ppt/internal/transport"
	"ppt/internal/transport/aeolus"
	"ppt/internal/transport/dctcp"
	"ppt/internal/transport/expresspass"
	"ppt/internal/transport/halfback"
	"ppt/internal/transport/homa"
	"ppt/internal/transport/hpcc"
	"ppt/internal/transport/ndp"
	"ppt/internal/transport/pias"
	"ppt/internal/transport/ppt"
	"ppt/internal/transport/rc3"
	"ppt/internal/transport/swift"
	"ppt/internal/workload"
)

// fabric is a network an experiment runs on: its dimensions, its
// switch config and its RTO floor. With leaves > 0 it is a leaf-spine
// of leaves ToRs with perLeaf hosts each under spines spines
// (topo.LeafSpine); with leaves 0 it is a star of hosts hosts on one
// switch (topo.Star: the testbed and the dumbbell).
type fabric struct {
	name                    string
	leaves, spines, perLeaf int
	hosts                   int
	cfg                     topo.Config
	rtoMin                  sim.Time
}

// build wires the fabric under its switch config.
func (f fabric) build() *topo.Network {
	if f.leaves == 0 {
		return topo.Star(f.hosts, f.cfg)
	}
	return topo.LeafSpine(f.leaves, f.spines, f.perLeaf, f.cfg)
}

// buildFor wires the fabric for a run of p at the given shard hint,
// giving the switches what p needs of them: NDP trims payloads to the
// header, HPCC and hpcc+ppt read INT, Aeolus drops its unscheduled
// packets selectively, and PIAS, which demotes through all eight
// priorities, marks every queue at the high class's threshold. The
// needs are a function of p's type, so a cell's protocol value pins
// them.
func (f fabric) buildFor(p transport.Protocol, shards int) *topo.Network {
	f.cfg.Shards = shards
	switch p.(type) {
	case ndp.Proto:
		f.cfg.TrimToHeader = true
	case hpcc.Proto, hpcc.PPTVariant:
		f.cfg.EnableINT = true
	case aeolus.Proto:
		f.cfg.DroppableThresh = 24_000
		if f.cfg.PerPortBuffer > 0 {
			f.cfg.DroppableThresh = f.cfg.PerPortBuffer / 8
		}
	case pias.Proto:
		f.cfg.ECNLowK = f.cfg.ECNHighK
	}
	return f.build()
}

// partitionable reports whether the fabric honors Config.Shards with a
// real multi-switch partition. A star has nothing to shard and silently
// runs monolithic; Options.StrictShards turns that into a cell error.
func (f fabric) partitionable() bool { return f.leaves > 0 }

// simFabric is the §6.2 profile: 144 hosts, 9 leaves, 4 spines, 40/100G
// oversubscribed, 120KB/port, K_H=96KB, K_L=86KB, plain drop-tail shared
// buffers (the paper's ns-3 switch model; the testbed profile keeps
// dynamic thresholds, as real shared-buffer silicon does). Experiments
// default to a smaller 3-leaf slice (24 hosts) so runs stay tractable;
// the full topology is a -flows-scaled pptsim run away.
func simFabric(leaves, spines, perLeaf int) fabric {
	return fabric{
		name:   "leafspine-40/100G",
		leaves: leaves, spines: spines, perLeaf: perLeaf, hosts: leaves * perLeaf,
		cfg: topo.Config{
			HostRate:      40 * netsim.Gbps,
			CoreRate:      100 * netsim.Gbps,
			PerPortBuffer: 120_000,
			ECNHighK:      96_000,
			ECNLowK:       86_000,
		},
		rtoMin: 1 * sim.Millisecond,
	}
}

// fastFabric is the 100/400G variant of Fig 22.
func fastFabric(leaves, spines, perLeaf int) fabric {
	f := simFabric(leaves, spines, perLeaf)
	f.name = "leafspine-100/400G"
	f.cfg.HostRate = 100 * netsim.Gbps
	f.cfg.CoreRate = 400 * netsim.Gbps
	f.cfg.PerPortBuffer = 300_000
	f.cfg.ECNHighK = 240_000
	f.cfg.ECNLowK = 215_000
	return f
}

// nonOverFabric is the appendix E 1:1 fabric.
func nonOverFabric(leaves, spines, perLeaf int) fabric {
	f := simFabric(leaves, spines, perLeaf)
	f.name = "leafspine-10/40G-1:1"
	f.cfg.HostRate = 10 * netsim.Gbps
	f.cfg.CoreRate = 40 * netsim.Gbps
	f.cfg.ECNHighK = 30_000
	f.cfg.ECNLowK = 25_000
	return f
}

// testbedFabric is the Table 3 CloudLab profile: 15 hosts, 10G, 80µs
// RTT, 50MB shared buffer, RTO_min 10ms.
func testbedFabric() fabric {
	return fabric{
		name:  "testbed-star-10G",
		hosts: 15,
		cfg: topo.Config{
			HostRate:            10 * netsim.Gbps,
			LinkDelay:           20 * sim.Microsecond,
			SharedBuffer:        50 << 20,
			ECNHighK:            100_000,
			ECNLowK:             80_000,
			DynamicLowThreshold: true,
		},
		rtoMin: 10 * sim.Millisecond,
	}
}

// dumbbellFabric is the Fig 1/20/28/29 microbenchmark: senders + one
// receiver on a 40G switch with a 120KB buffer.
func dumbbellFabric(senders int, ecnK int64) fabric {
	return fabric{
		name:  "dumbbell-40G",
		hosts: senders + 1,
		cfg: topo.Config{
			HostRate:     40 * netsim.Gbps,
			LinkDelay:    1 * sim.Microsecond,
			SharedBuffer: 120_000,
			ECNHighK:     ecnK,
			ECNLowK:      ecnK * 5 / 6,
		},
		rtoMin: 1 * sim.Millisecond,
	}
}

// topologies maps the public topology names (ppt.Topology*) to fabrics.
func topologies() map[string]fabric {
	return map[string]fabric{
		"testbed":            testbedFabric(),
		"sim":                simFabric(3, 2, 8),
		"sim-full":           simFabric(9, 4, 16),
		"fast":               fastFabric(3, 2, 8),
		"non-oversubscribed": nonOverFabric(3, 2, 8),
	}
}

// baseSchemes is the scheme table: each comparable transport's
// protocol value, keyed by its name. A protocol value is stateless and
// its fields are its parameters, so the value is the scheme: a cell
// runs its flows on it, and the cell's cache key encodes it whole.
func baseSchemes() map[string]transport.Protocol {
	table := map[string]transport.Protocol{}
	for _, p := range []transport.Protocol{
		dctcp.Proto{}, rc3.Proto{}, pias.Proto{}, hpcc.Proto{}, homa.Proto{},
		aeolus.Proto{}, ndp.Proto{}, ppt.Proto{}, swift.Proto{},
		swift.Proto{Cfg: swift.Config{WithPPT: true}}, hpcc.PPTVariant{},
		// tcp10 is the TCP-10 row of Table 1: loss-driven TCP with an
		// initial window of 10 (no ECN reaction).
		dctcp.Proto{Cfg: dctcp.Config{NoECN: true}},
		halfback.Proto{}, expresspass.Proto{},
	} {
		table[p.Name()] = p
	}
	return table
}

// schemeOf is the name the Schemes filter matches a row's protocol
// against: its table name, except that every ppt.Proto (each ablation
// too) counts as "ppt" and every ppt.Oracle as "hypothetical".
func schemeOf(proto transport.Protocol) string {
	switch proto.(type) {
	case ppt.Proto:
		return "ppt"
	case ppt.Oracle:
		return "hypothetical"
	}
	return proto.Name()
}

// runSpec is one cell: a scheme run on a fabric under a workload.
type runSpec struct {
	fab fabric
	// proto is the scheme: the transport's protocol value. A cell's
	// §2.3 oracle (ppt.Oracle) carries no MW; execute records it.
	proto   transport.Protocol
	dist    *workload.Dist
	pattern workload.Pattern
	load    float64
	flows   int
	seed    int64
	// sendBuf models the TCP send buffer for first-call identification
	// and LCP reach (0 = unbounded / 2GB).
	sendBuf int64
	// obs watches the run and computes the cell's extras (zero value:
	// a summary-only cell).
	obs observer
	// shards caps the windowed driver's worker goroutines for this cell
	// (topo.Config.Shards, from Options.Shards). Every leaf-spine cell
	// runs windowed, at the same outcome for every value; a star fabric
	// ignores it.
	shards int
	// spillChunk, when > 0, bounds the FCT collector to this many
	// resident records (stats spill mode). It composes with the
	// windowed engine: per-shard completions fold into the spilling
	// collector at round barriers in canonical order (stats.WindowFold),
	// bit-identical to the in-memory merge.
	spillChunk int
}

// observer watches one cell. execute calls arm on the built Env, after
// the fabric, Env and spill are set up and before the workload starts;
// arm returns the reader that computes the cell's extras once the run
// has ended. The extras are part of the cached value, so they replay on
// a hit, when no Env exists. tag names the extras in the cache
// descriptor: two observers over the same simulation store different
// values, so they must never share an entry.
type observer struct {
	tag string
	arm func(env *transport.Env) func() map[string]float64
}

// readAfter is an observer that arms nothing and computes the extras
// from the Env once the run has ended.
func readAfter(tag string, read func(env *transport.Env) map[string]float64) observer {
	return observer{tag: tag, arm: func(env *transport.Env) func() map[string]float64 {
		return func() map[string]float64 { return read(env) }
	}}
}

// streamSource adapts a lazy workload generator into transport's
// FlowSource, assigning each flow its first-syscall size on the fly
// under the bulk application model. It draws from the classifier RNG
// exactly once per flow in generation order — the same consumption
// sequence as bufaware.AssignFirstCalls over the materialized trace.
type streamSource struct {
	gen     *workload.Generator
	rng     *rand.Rand
	sendBuf int64
}

func (s *streamSource) Next() (transport.SimpleFlow, bool) {
	f, ok := s.gen.Next()
	if !ok {
		return transport.SimpleFlow{}, false
	}
	return transport.SimpleFlow{
		ID: f.ID, Src: f.Src, Dst: f.Dst, Size: f.Size,
		Arrive: f.Arrive, FirstCall: bufaware.Bulk.FirstCall(s.rng, f.Size, s.sendBuf),
	}, true
}

// auditNet, when set, checks every cell's fabric after its run (the
// package tests install topo.Network.Audit); a violation panics, which
// fails the cell.
var auditNet func(*topo.Network) error

// audit runs auditNet, if set, on a finished cell's fabric.
func audit(net *topo.Network) {
	if auditNet != nil {
		if err := auditNet(net); err != nil {
			panic(err)
		}
	}
}

// execute runs one cell: it builds the fabric and Env, arms the cell's
// observer, streams the workload to completion, reads the extras and
// audits the fabric. It returns the summary, the extras, the Env and
// the scheduler events the cell executed. An oracle cell first runs
// pass 1 — the MW recorder on the same cell, without its observer — to
// learn each flow's maximum window, and its events count both passes.
func execute(spec runSpec) (sum stats.Summary, extra map[string]float64, env *transport.Env, events uint64) {
	proto := spec.proto
	if oracle, ok := proto.(ppt.Oracle); ok {
		rec := ppt.NewMWRecorder()
		pass1 := spec
		pass1.proto, pass1.obs = rec, observer{}
		_, _, _, events = execute(pass1)
		oracle.MW = rec.MW()
		proto = oracle
	}
	env = transport.NewEnv(spec.fab.buildFor(proto, spec.shards))
	env.RTOMin = spec.fab.rtoMin
	env.SendBuf = spec.sendBuf

	if spec.spillChunk > 0 {
		if err := env.Collector.SetSpill(spec.spillChunk); err != nil {
			panic(err)
		}
		// The spill file is unlinked at creation; Close just releases
		// the descriptor. The counters callers read afterwards
		// (ResidentPeak, SpilledRecords) survive Close.
		defer env.Collector.Close()
	}
	var read func() map[string]float64
	if spec.obs.arm != nil {
		read = spec.obs.arm(env)
	}
	src := &streamSource{
		gen: workload.NewGenerator(workload.GenConfig{
			Dist:     spec.dist,
			Pattern:  spec.pattern,
			Load:     spec.load,
			HostRate: spec.fab.cfg.HostRate,
			NumFlows: spec.flows,
			Seed:     spec.seed,
		}),
		rng:     rand.New(rand.NewSource(spec.seed + 7)),
		sendBuf: spec.sendBuf,
	}
	sum = transport.RunSource(env, proto, src, transport.RunConfig{})
	if read != nil {
		extra = read()
	}
	audit(env.Net)
	return sum, extra, env, events + env.Net.Executed()
}

// compare runs the named schemes over spec, one row each (see
// pool.compare).
func compare(o Options, spec runSpec, names []string) []Row {
	p := newPool(o)
	p.compare(spec, names, "")
	return p.run()
}

// meanSummary averages summaries across repeats (metric-wise).
func meanSummary(sums []stats.Summary) stats.Summary {
	if len(sums) == 1 {
		return sums[0]
	}
	var out stats.Summary
	n := sim.Time(len(sums))
	for _, s := range sums {
		out.Flows += s.Flows
		out.SmallCount += s.SmallCount
		out.LargeCount += s.LargeCount
		out.OverallAvg += s.OverallAvg
		out.SmallAvg += s.SmallAvg
		out.SmallP99 += s.SmallP99
		out.LargeAvg += s.LargeAvg
		if s.Truncated {
			out.Truncated = true
		}
		out.Unfinished += s.Unfinished
	}
	out.Flows /= len(sums)
	out.SmallCount /= len(sums)
	out.LargeCount /= len(sums)
	out.Unfinished /= len(sums)
	out.OverallAvg /= n
	out.SmallAvg /= n
	out.SmallP99 /= n
	out.LargeAvg /= n
	return out
}

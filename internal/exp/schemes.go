package exp

import (
	"fmt"
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

// fabric describes how an experiment builds its network.
type fabric struct {
	name   string
	build  func(cfg topo.Config) *topo.Network
	cfg    topo.Config
	rtoMin sim.Time
	hosts  int
	// shape names the wiring the build closure produces (builder kind +
	// dimensions). Part of the cell cache key: two fabrics can share
	// name and config yet wire different topologies (e.g. a wider
	// leaf-spine), and a closure can't be hashed.
	shape string
	// partitionable marks builders that honor Config.Shards with a real
	// multi-switch partition (topo.LeafSpine). The single-switch
	// builder (topo.Star: the testbed and the dumbbell) has nothing to
	// shard and silently runs monolithic; Options.StrictShards turns
	// that into a cell error.
	partitionable bool
}

// simFabric is the §6.2 profile: 144 hosts, 9 leaves, 4 spines, 40/100G
// oversubscribed, 120KB/port, K_H=96KB, K_L=86KB, plain drop-tail shared
// buffers (the paper's ns-3 switch model; the testbed profile keeps
// dynamic thresholds, as real shared-buffer silicon does). Experiments
// default to a smaller 3-leaf slice (24 hosts) so runs stay tractable;
// the full topology is a -flows-scaled pptsim run away.
func simFabric(leaves, spines, perLeaf int) fabric {
	return fabric{
		name:  "leafspine-40/100G",
		shape: fmt.Sprintf("leafspine/%d-%d-%d", leaves, spines, perLeaf),
		build: func(cfg topo.Config) *topo.Network { return topo.LeafSpine(leaves, spines, perLeaf, cfg) },
		cfg: topo.Config{
			HostRate:      40 * netsim.Gbps,
			CoreRate:      100 * netsim.Gbps,
			PerPortBuffer: 120_000,
			ECNHighK:      96_000,
			ECNLowK:       86_000,
		},
		rtoMin:        1 * sim.Millisecond,
		hosts:         leaves * perLeaf,
		partitionable: true,
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
		shape: "star/15",
		build: func(cfg topo.Config) *topo.Network { return topo.Star(15, cfg) },
		cfg: topo.Config{
			HostRate:            10 * netsim.Gbps,
			LinkDelay:           20 * sim.Microsecond,
			SharedBuffer:        50 << 20,
			ECNHighK:            100_000,
			ECNLowK:             80_000,
			DynamicLowThreshold: true,
		},
		rtoMin: 10 * sim.Millisecond,
		hosts:  15,
	}
}

// dumbbellFabric is the Fig 1/20/28/29 microbenchmark: senders + one
// receiver on a 40G switch with a 120KB buffer.
func dumbbellFabric(senders int, ecnK int64) fabric {
	return fabric{
		name:  "dumbbell-40G",
		shape: fmt.Sprintf("star/%d", senders+1),
		build: func(cfg topo.Config) *topo.Network { return topo.Star(senders+1, cfg) },
		cfg: topo.Config{
			HostRate:     40 * netsim.Gbps,
			LinkDelay:    1 * sim.Microsecond,
			SharedBuffer: 120_000,
			ECNHighK:     ecnK,
			ECNLowK:      ecnK * 5 / 6,
		},
		rtoMin: 1 * sim.Millisecond,
		hosts:  senders + 1,
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

// scheme is one comparable transport.
type scheme struct {
	name string
	// tweak adapts the fabric for the scheme's switch requirements
	// (trimming, INT, selective drop).
	tweak func(*topo.Config)
	// make builds a fresh protocol instance for one run.
	make func() transport.Protocol
}

func tweakTrim(c *topo.Config) { c.TrimToHeader = true }
func tweakINT(c *topo.Config)  { c.EnableINT = true }
func tweakDrop(c *topo.Config) {
	if c.PerPortBuffer > 0 {
		c.DroppableThresh = c.PerPortBuffer / 8
	} else {
		c.DroppableThresh = 24_000
	}
}

// pptScheme builds a PPT scheme with the given config tweaks.
func pptScheme(name string, cfg ppt.Config) scheme {
	return scheme{
		name: name,
		make: func() transport.Protocol { return ppt.Proto{Cfg: cfg} },
	}
}

func baseSchemes() map[string]scheme {
	return map[string]scheme{
		"dctcp": {name: "dctcp", make: func() transport.Protocol { return dctcp.Proto{} }},
		"rc3":   {name: "rc3", make: func() transport.Protocol { return rc3.Proto{} }},
		// PIAS uses all eight priorities for demotion, so every queue
		// marks like the high class (one per-port DCTCP threshold).
		"pias": {name: "pias", tweak: func(c *topo.Config) { c.ECNLowK = c.ECNHighK },
			make: func() transport.Protocol { return pias.Proto{} }},
		"hpcc": {name: "hpcc", tweak: tweakINT, make: func() transport.Protocol { return hpcc.Proto{} }},
		"homa": {name: "homa", make: func() transport.Protocol { return homa.Proto{} }},
		"aeolus": {name: "aeolus", tweak: tweakDrop,
			make: func() transport.Protocol { return aeolus.Proto{} }},
		"ndp": {name: "ndp", tweak: tweakTrim,
			make: func() transport.Protocol { return ndp.Proto{} }},
		"ppt":       pptScheme("ppt", ppt.Config{}),
		"swift":     {name: "swift", make: func() transport.Protocol { return swift.Proto{} }},
		"swift+ppt": {name: "swift+ppt", make: func() transport.Protocol { return swift.Proto{Cfg: swift.Config{WithPPT: true}} }},
		"hpcc+ppt": {name: "hpcc+ppt", tweak: tweakINT,
			make: func() transport.Protocol { return hpcc.PPTVariant{} }},
		// tcp10 is the TCP-10 row of Table 1: loss-driven TCP with an
		// initial window of 10 (no ECN reaction).
		"tcp10": {name: "tcp10", make: func() transport.Protocol {
			return dctcp.Proto{Cfg: dctcp.Config{NoECN: true}}
		}},
		"halfback": {name: "halfback", make: func() transport.Protocol { return halfback.Proto{} }},
		"expresspass": {name: "expresspass",
			make: func() transport.Protocol { return expresspass.Proto{} }},
	}
}

// runSpec is one scheme execution.
type runSpec struct {
	fab     fabric
	sc      scheme
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
// audits the fabric. It returns the summary, the extras and the Env.
func execute(spec runSpec) (stats.Summary, map[string]float64, *transport.Env) {
	sum, extra, env := simulate(spec)
	audit(env.Net)
	return sum, extra, env
}

// simulate is execute without the audit.
func simulate(spec runSpec) (stats.Summary, map[string]float64, *transport.Env) {
	cfg := spec.fab.cfg
	if spec.sc.tweak != nil {
		spec.sc.tweak(&cfg)
	}
	// make may itself run a cell (the hypothetical DCTCP's pass 1), so
	// it runs before this cell's fabric exists.
	proto := spec.sc.make()
	cfg.Shards = spec.shards
	net := spec.fab.build(cfg)
	env := transport.NewEnv(net)
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
			HostRate: cfg.HostRate,
			NumFlows: spec.flows,
			Seed:     spec.seed,
		}),
		rng:     rand.New(rand.NewSource(spec.seed + 7)),
		sendBuf: spec.sendBuf,
	}
	sum := transport.RunSource(env, proto, src, transport.RunConfig{})
	var extra map[string]float64
	if read != nil {
		extra = read()
	}
	return sum, extra, env
}

// compare runs the given schemes over one workload and assembles rows,
// averaging over Options.Repeats seeds. Cells run on the worker pool
// (Options.Parallel wide).
func compare(o Options, fab fabric, dist *workload.Dist, pattern workload.Pattern, load float64, names []string) []Row {
	p := newPool(o)
	rows := compareCells(p, o, fab, dist, pattern, load, names)
	p.run()
	return rows()
}

// compareCells submits one cell per (scheme × repeat) to p and returns
// the reducer that assembles the rows once p.run() has completed.
// Splitting submission from reduction lets multi-load/multi-N sweeps
// flatten every cell into one pool instead of running one pool per
// sweep point.
func compareCells(p *pool, o Options, fab fabric, dist *workload.Dist, pattern workload.Pattern, load float64, names []string) func() []Row {
	all := baseSchemes()
	repeats := o.Repeats
	if repeats < 1 {
		repeats = 1
	}
	type schemeCells struct {
		name string
		outs []*cellOut
	}
	var cells []schemeCells
	for _, name := range names {
		if !o.wants(name) {
			continue
		}
		sc, ok := all[name]
		if !ok {
			continue
		}
		outs := make([]*cellOut, repeats)
		for rep := 0; rep < repeats; rep++ {
			outs[rep] = p.submitSpec(
				fmt.Sprintf("%s load=%g seed=%d", name, load, o.Seed+int64(rep)),
				runSpec{
					fab: fab, sc: sc, dist: dist, pattern: pattern,
					load: load, flows: o.Flows, seed: o.Seed + int64(rep),
				})
		}
		cells = append(cells, schemeCells{name, outs})
	}
	return func() []Row {
		rows := make([]Row, 0, len(cells))
		for _, c := range cells {
			sums := make([]stats.Summary, 0, len(c.outs))
			for _, out := range c.outs {
				if !out.failed() {
					sums = append(sums, out.sum)
				}
			}
			if len(sums) == 0 {
				// Every repeat failed (and was reported via the error
				// sink): keep the row so the table shape is stable.
				rows = append(rows, Row{Label: c.name})
				continue
			}
			rows = append(rows, Row{Label: c.name, Sum: meanSummary(sums)})
		}
		return rows
	}
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

package exp

import (
	"fmt"
	"math"
)

// This file builds the canonical cell descriptor the result cache
// hashes into content addresses (DESIGN.md §7.8). Every cached cell is
// an execute() cell, so specDesc is the only descriptor. The ground
// rule: a descriptor names every input that can change a cell's
// Summary or extras, and nothing else. Engine knobs — shard count,
// worker count, spill chunk — are deliberately ABSENT: the golden
// matrix and the differentials prove them outcome-invisible, so a
// result computed at -shards=4 must hit when replayed at -shards=1.
// That exclusion is itself pinned by TestCacheKeyExcludesEngineKnobs.
//
// Scheme-name invariant: a scheme's name uniquely determines its
// protocol constructor and parameters, so name + post-tweak switch
// config is a complete scheme identity. Every transport parameter is a
// constant of its package or derived from the fabric, except the few a
// name or label carries: dctcp's NoECN (tcp10), swift's WithPPT
// (swift+ppt), PPT's four ablations (distinct ppt.Proto names), the
// hypothetical DCTCP's fill fraction, and the parameter fig24/fig27
// sweep. TestSchemeNamesPinParameters checks the scheme table and the
// ablation names. A new scheme whose name doesn't pin its parameters
// must encode them in the name (as fig24/fig27 do) or extend specDesc.

// specDesc is the canonical descriptor of one execute() cell: the
// fabric's builder shape (two builders can share name and config but
// wire different topologies), its post-tweak switch config with the
// shard hint zeroed, the RTO floor the transport layer derives from it,
// the scheme, the workload and the observer's extras tag. Floats render
// by their IEEE-754 bits, which is exact and distinguishes everything
// == conflates (-0 vs +0, NaN payloads). %+v over the flat config
// struct is stable because field order is source order and every field
// is a scalar; adding a Config field changes every descriptor, which
// safely invalidates (keys just stop matching old entries).
func specDesc(spec runSpec) string {
	cfg := spec.fab.cfg
	if spec.sc.tweak != nil {
		spec.sc.tweak(&cfg)
	}
	cfg.Shards = 0
	desc := fmt.Sprintf("fabric=%s shape=%s hosts=%d rtoMin=%d cfg={%+v}\nscheme=%s\ndist=%s\npattern=%T%+v\nload=%#x\nflows=%d\nseed=%d\nsendbuf=%d\n",
		spec.fab.name, spec.fab.shape, spec.fab.hosts, int64(spec.fab.rtoMin), cfg,
		spec.sc.name, spec.dist.Name, spec.pattern, spec.pattern,
		math.Float64bits(spec.load), spec.flows, spec.seed, spec.sendBuf)
	if spec.obs.tag != "" {
		desc += "extras=" + spec.obs.tag + "\n"
	}
	return desc
}

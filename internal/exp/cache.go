package exp

import (
	"fmt"
	"math"

	"ppt/internal/bufaware"
	"ppt/internal/cache"
	"ppt/internal/stats"
	"ppt/internal/topo"
	"ppt/internal/workload"
)

// This file builds the canonical cell descriptors the result cache
// hashes into content addresses (DESIGN.md §7.8). The ground rule:
// a descriptor names every input that can change a cell's Summary or
// extras, and nothing else. Engine knobs — shard count, worker count,
// spill chunk — are deliberately ABSENT: the golden matrix
// and the differentials prove them outcome-invisible, so a result
// computed at -shards=4 must hit when replayed at -shards=1. That
// exclusion is itself pinned by TestCacheKeyExcludesEngineKnobs.
//
// Scheme-name invariant: a scheme's name uniquely determines its
// protocol constructor and parameters (ablation variants carry
// distinct ppt.Proto names, fig24/fig27 bake the swept parameter into
// the label), so name + post-tweak switch config is a complete scheme
// identity. A new scheme whose name doesn't pin its parameters must
// encode them in the name (as fig24/fig27 do) or extend specDesc.

// canonCfg renders the post-tweak switch config with the shard hint
// zeroed, so the descriptor captures exactly the outcome-relevant
// switch behaviour. %+v over the flat struct is stable because field
// order is source order and every field is a scalar; adding a Config
// field changes every descriptor, which safely invalidates (keys just
// stop matching old entries).
func canonCfg(cfg topo.Config) string {
	cfg.Shards = 0
	return fmt.Sprintf("%+v", cfg)
}

// f64 renders a float64 by its IEEE-754 bits: exact, and distinguishes
// everything == conflates (-0 vs +0, NaN payloads).
func f64(x float64) string { return fmt.Sprintf("%#x", math.Float64bits(x)) }

// fabDesc names a fabric: builder shape (two builders can share name
// and config but wire different topologies), post-tweak config, and
// the RTO floor the transport layer derives from it.
func fabDesc(fab fabric, cfg topo.Config) string {
	return fmt.Sprintf("fabric=%s shape=%s hosts=%d rtoMin=%d cfg={%s}",
		fab.name, fab.shape, fab.hosts, int64(fab.rtoMin), canonCfg(cfg))
}

func patternDesc(p workload.Pattern) string { return fmt.Sprintf("%T%+v", p, p) }

// specDesc is the canonical descriptor of one execute() cell.
func specDesc(spec runSpec) string {
	cfg := spec.fab.cfg
	if spec.sc.tweak != nil {
		spec.sc.tweak(&cfg)
	}
	app := spec.app
	if app.Name == "" {
		// Zero value and explicit Bulk are the same execution.
		app = bufaware.Bulk
	}
	return fmt.Sprintf("kind=spec\n%s\nscheme=%s\ndist=%s\npattern=%s\nload=%s\nflows=%d\nseed=%d\nsendbuf=%d\napp=%s/p=%s/chunk=%d\n",
		fabDesc(spec.fab, cfg), spec.sc.name, spec.dist.Name, patternDesc(spec.pattern),
		f64(spec.load), spec.flows, spec.seed, spec.sendBuf,
		app.Name, f64(app.WholeMsgProb), app.ChunkBytes)
}

// oracleDesc describes a two-pass hypothetical-DCTCP cell (fig2/fig3):
// the oracle is parameterized by its fill fraction on top of the shared
// workload inputs.
func oracleDesc(fab fabric, dist *workload.Dist, pattern workload.Pattern, load float64, flows int, seed int64, frac float64) string {
	return fmt.Sprintf("kind=oracle\n%s\ndist=%s\npattern=%s\nload=%s\nflows=%d\nseed=%d\nfrac=%s\n",
		fabDesc(fab, fab.cfg), dist.Name, patternDesc(pattern), f64(load), flows, seed, f64(frac))
}

// utilDesc describes a fig1/fig20 utilization cell: one scheme (or the
// oracle) on the 2-sender dumbbell with the downlink sampler.
func utilDesc(fab fabric, load float64, flows int, seed int64, schemeName string, oracleFrac float64) string {
	return fmt.Sprintf("kind=util\n%s\nscheme=%s\noracleFrac=%s\nload=%s\nflows=%d\nseed=%d\n",
		fabDesc(fab, fab.cfg), schemeName, f64(oracleFrac), f64(load), flows, seed)
}

// bufStudyDesc describes a fig28/fig29 cell: scheme × shared-ECN
// threshold on the 2-sender dumbbell, with the occupancy sampler. The
// efficiency flag selects which extras the row reports, so it is part
// of the outcome.
func bufStudyDesc(name string, k int64, load float64, flows int, seed int64, efficiency bool) string {
	return fmt.Sprintf("kind=bufstudy\nscheme=%s\necnK=%d\nload=%s\nflows=%d\nseed=%d\nefficiency=%t\n",
		name, k, f64(load), flows, seed, efficiency)
}

// cachedCell answers one custom (non-submitSpec) cell through the
// result cache: compute runs only on a miss (or in verify mode), and
// its (summary, extras) pair is the cached value. With no cache
// configured it is a plain call. A verify-mode divergence comes back
// as an error — the caller fails the cell, and pptsim turns the
// mismatch count into a non-zero exit.
func (o Options) cachedCell(desc string, compute func() (stats.Summary, map[string]float64)) (stats.Summary, map[string]float64, error) {
	if o.Cache == nil {
		sum, extra := compute()
		return sum, extra, nil
	}
	key := o.Cache.NewKey(desc)
	v, out := o.Cache.Do(key, o.CacheVerify, func() cache.Value {
		sum, extra := compute()
		return cache.Value{Sum: sum, Extra: extra}
	})
	if out.Mismatch {
		return v.Sum, v.Extra, fmt.Errorf("cache verify mismatch: stored entry %s diverges from fresh execution (cell %q)", key, firstLine(desc))
	}
	return v.Sum, v.Extra, nil
}

func firstLine(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			return s[:i]
		}
	}
	return s
}

package exp

import (
	"fmt"

	"ppt/internal/transport"
	"ppt/internal/workload"
)

// The scale1M experiments are the repo's million-flow capability proof:
// a published workload streamed through a lazy FlowSource into a
// spilling FCT collector, so neither the trace nor the completion log
// is ever resident. scale1M uses memcached W1 (small messages, ~tens of
// scheduler events per flow — tractable on one core);
// scale1M-websearch uses the heavy websearch distribution (~15k
// scheduler events per flow), the workload that actually needs the
// sharded engine's multi-core scale-out. Neither is a paper figure;
// they exist so the scale bench families and the CI smokes have
// registered experiments to run, and so
// `pptsim -exp scale1M-websearch -flows 1000000 -shards 4` is a
// one-liner.

// scale1MSchemes are the two hot pooled transports, matching the
// existing scale bench family.
var scale1MSchemes = []string{"ppt", "dctcp"}

// scale1MSpillChunk caps resident completions in the streamed cells:
// 64Ki words × 8B = 512KiB resident regardless of flow count; the
// overflow lives as 8 bytes per small flow in an unlinked temp file.
const scale1MSpillChunk = 1 << 16

// scale1MWebSpillChunk is the websearch variant's cap. Smaller (16Ki)
// so the spill path engages even at the reduced default flow count the
// heavy distribution forces.
const scale1MWebSpillChunk = 1 << 14

func init() {
	register(&Experiment{
		ID:       "scale1M",
		Title:    "[Scale] streamed Memcached W1 workload, bounded-memory FCT collection (1M-flow capable)",
		DefFlows: 100_000,
		Run: func(o Options) *Result {
			return runScaleSpill(o, "scale1M", "streamed + spilled scale run, memcached W1",
				workload.MemcachedW1, scale1MSpillChunk)
		},
	})
	register(&Experiment{
		ID:       "scale1M-websearch",
		Title:    "[Scale] streamed websearch workload, bounded-memory FCT collection, sharded-engine scale-out (1M-flow capable)",
		DefFlows: 20_000, // ~15k events/flow: the default stays minutes, not hours; -flows raises it
		Run: func(o Options) *Result {
			return runScaleSpill(o, "scale1M-websearch", "streamed + spilled scale run, websearch",
				workload.WebSearch, scale1MWebSpillChunk)
		},
	})
}

// runScaleSpill is the shared driver of the streamed + spilled scale
// experiments. Spill composes with the windowed engine: per-shard
// completion logs fold into the spilling collector at round barriers in
// canonical order (stats.WindowFold), so `-shards=4` parallelizes
// inside a cell while staying byte-identical to `-shards=1` — and
// repeats/schemes still parallelize across cells on the worker pool,
// each cell with its own bounded collector and unlinked temp file.
func runScaleSpill(o Options, id, title string, dist *workload.Dist, spill int) *Result {
	fab := simFabric(3, 2, 8)
	// The spill accounting rides in the observer so it can replay from
	// the cache (there is no collector on a hit). Its tag carries the
	// chunk size: resident_peak/spilled are a function of it, even
	// though the Summary is not.
	obs := readAfter(fmt.Sprintf("scale-spill/chunk=%d", spill), func(env *transport.Env) map[string]float64 {
		return map[string]float64{
			"resident_peak":   float64(env.Collector.ResidentPeak()),
			"spilled_records": float64(env.Collector.SpilledRecords()),
		}
	})
	spec := runSpec{fab: fab, dist: dist, pattern: workload.AllToAll{N: fab.hosts},
		load: o.loadOr(0.5), flows: o.Flows, seed: o.Seed, spillChunk: spill, obs: obs}
	p := newPool(o)
	p.compare(spec, scale1MSchemes, "")
	rows := p.run()
	// resident_peak is the bound being claimed, so it is the max across
	// repeats, not their mean (which never exceeds it).
	for i, r := range p.rows {
		for _, c := range r.outs {
			if !c.failed() {
				rows[i].Extra["resident_peak"] = max(rows[i].Extra["resident_peak"], c.extra["resident_peak"])
			}
		}
	}
	return &Result{ID: id, Title: title,
		Rows: rows,
		Notes: []string{
			fmt.Sprintf("workload streamed per-flow; FCT collector spill chunk = %d records (spill composes with -shards via the windowed fold; repeats/schemes parallelize on the pool)", spill),
			"resident_peak counts FCT records ever resident at once; spilled_records went to the unlinked temp file",
		}}
}

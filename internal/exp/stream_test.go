package exp

import (
	"testing"

	"ppt/internal/bufaware"
	"ppt/internal/stats"
	"ppt/internal/transport"
	"ppt/internal/transport/ppt"
	"ppt/internal/workload"
)

// TestStreamedExecuteMatchesMaterialized is the exp-level streamed-vs-
// materialized differential: a cell through execute's lazy FlowSource
// (with and without a spilling collector) must produce the byte-
// identical summary of the same cell composed trace-first (generate,
// AssignFirstCalls under the bulk model, transport.Run). This pins both
// halves of the streaming pipeline at once — the generator and the
// first-call assignment, and the spill fold — through a real transport.
func TestStreamedExecuteMatchesMaterialized(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three full cells")
	}
	fab := simFabric(3, 2, 8)
	// Every memcached W1 flow is under 100KB, so under the bulk model
	// each first call is the whole message; the 1MB send buffer still
	// bounds PPT's LCP reach, on both sides of the comparison.
	base := runSpec{
		fab: fab, proto: ppt.Proto{}, dist: workload.MemcachedW1,
		pattern: workload.AllToAll{N: fab.hosts}, load: 0.5,
		flows: 1500, seed: 3, sendBuf: 1 << 20,
	}
	want := materialized(base)
	if want.Flows != 1500 || want.Truncated {
		t.Fatalf("reference cell did not complete: %+v", want)
	}

	if got, _, _, _ := execute(base); got != want {
		t.Fatalf("streamed summary %+v != materialized %+v", got, want)
	}

	sp := base
	sp.spillChunk = 64
	got, _, env, _ := execute(sp)
	if got != want {
		t.Fatalf("streamed+spilled summary %+v != materialized %+v", got, want)
	}
	if peak := env.Collector.ResidentPeak(); peak > 64 {
		t.Fatalf("resident peak %d exceeds spill chunk 64", peak)
	}
	if env.Collector.SpilledRecords() == 0 {
		t.Fatal("nothing spilled at chunk 64 with 1500 flows")
	}
}

// materialized runs a cell trace-first: the whole workload
// generated up front, first calls from bufaware.AssignFirstCalls under
// the bulk model, then transport.Run over the slice.
func materialized(spec runSpec) stats.Summary {
	env := transport.NewEnv(spec.fab.buildFor(spec.proto, 0))
	env.RTOMin = spec.fab.rtoMin
	env.SendBuf = spec.sendBuf
	wf := workload.Generate(workload.GenConfig{
		Dist: spec.dist, Pattern: spec.pattern, Load: spec.load,
		HostRate: spec.fab.cfg.HostRate, NumFlows: spec.flows, Seed: spec.seed,
	})
	sizes := make([]int64, len(wf))
	for i, f := range wf {
		sizes[i] = f.Size
	}
	firstCalls := bufaware.AssignFirstCalls(sizes, bufaware.Bulk, spec.sendBuf, spec.seed+7)
	flows := make([]transport.SimpleFlow, len(wf))
	for i, f := range wf {
		flows[i] = transport.SimpleFlow{
			ID: f.ID, Src: f.Src, Dst: f.Dst, Size: f.Size,
			Arrive: f.Arrive, FirstCall: firstCalls[i],
		}
	}
	return transport.Run(env, spec.proto, flows, transport.RunConfig{})
}

// TestScale1MSpills smoke-runs the scale family's experiment just past
// its spill chunk and checks the bounded-memory contract surfaces in
// the result rows.
func TestScale1MSpills(t *testing.T) {
	if testing.Short() {
		t.Skip("runs an 80k-flow cell")
	}
	res, err := RunByID("scale1M", Options{Flows: scale1MSpillChunk + 15_000, Schemes: []string{"dctcp"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %+v, want one dctcp row", res.Rows)
	}
	row := res.Rows[0]
	if row.Sum.Flows != scale1MSpillChunk+15_000 || row.Sum.Truncated {
		t.Fatalf("cell did not complete: %+v", row.Sum)
	}
	if peak := row.Extra["resident_peak"]; peak <= 0 || peak > scale1MSpillChunk {
		t.Fatalf("resident_peak = %g, want in (0, %d]", peak, scale1MSpillChunk)
	}
	if row.Extra["spilled_records"] == 0 {
		t.Fatal("no records spilled past the chunk boundary")
	}
}

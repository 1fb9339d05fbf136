package exp

import (
	"math"
	"strings"
	"testing"

	"ppt/internal/cache"
	"ppt/internal/transport/ppt"
	"ppt/internal/workload"
)

func testExpCache(t *testing.T) *cache.Cache {
	t.Helper()
	c, err := cache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSchemeNamesPinParameters pins the scheme-name invariant of
// cache.go: the descriptor carries a scheme only by name, so each name
// must stand for one protocol with one set of parameters.
func TestSchemeNamesPinParameters(t *testing.T) {
	for key, sc := range baseSchemes() {
		if sc.name != key {
			t.Errorf("scheme %q is named %q", key, sc.name)
		}
		if got := sc.make().Name(); got != key {
			t.Errorf("scheme %q builds a protocol named %q", key, got)
		}
	}
	// Figs 15–18 name each ablation cell after its protocol.
	seen := map[string]bool{"ppt": true}
	for _, cfg := range []ppt.Config{
		{DisableECN: true}, {DisableEWD: true}, {DisableScheduling: true}, {DisableIdentification: true},
	} {
		name := ppt.Proto{Cfg: cfg}.Name()
		if seen[name] {
			t.Errorf("ablation %+v reuses the scheme name %q", cfg, name)
		}
		seen[name] = true
	}
}

// TestCacheKeyExcludesEngineKnobs pins the key construction contract:
// the engine knobs the golden matrix proves outcome-invisible (shards,
// spill chunk) MUST NOT reach the cell descriptor, while every
// outcome-relevant input MUST.
func TestCacheKeyExcludesEngineKnobs(t *testing.T) {
	base := runSpec{
		fab: simFabric(3, 2, 8), sc: baseSchemes()["ppt"],
		dist: workload.WebSearch, pattern: workload.AllToAll{N: 24},
		load: 0.5, flows: 100, seed: 3,
	}
	baseDesc := specDesc(base)

	// Outcome-invisible: descriptor unchanged.
	invisible := map[string]func(*runSpec){
		"shards":     func(s *runSpec) { s.shards = 4 },
		"spillChunk": func(s *runSpec) { s.spillChunk = 1 << 14 },
	}
	for name, mutate := range invisible {
		spec := base
		mutate(&spec)
		if got := specDesc(spec); got != baseDesc {
			t.Errorf("engine knob %q leaked into the cell descriptor:\n%s", name, got)
		}
	}

	// Outcome-relevant: descriptor must change.
	relevant := map[string]func(*runSpec){
		"seed":     func(s *runSpec) { s.seed = 4 },
		"flows":    func(s *runSpec) { s.flows = 101 },
		"load":     func(s *runSpec) { s.load = 0.6 },
		"scheme":   func(s *runSpec) { s.sc = baseSchemes()["dctcp"] },
		"dist":     func(s *runSpec) { s.dist = workload.DataMining },
		"pattern":  func(s *runSpec) { s.pattern = workload.Incast{N: 3, Target: 0} },
		"sendBuf":  func(s *runSpec) { s.sendBuf = 128 << 10 },
		"fabric":   func(s *runSpec) { s.fab = fastFabric(3, 2, 8) },
		"shape":    func(s *runSpec) { s.fab = simFabric(4, 2, 6) }, // same hosts, different wiring
		"observer": func(s *runSpec) { s.obs = switchDrops },
	}
	for name, mutate := range relevant {
		spec := base
		mutate(&spec)
		if got := specDesc(spec); got == baseDesc {
			t.Errorf("outcome-relevant input %q does not reach the cell descriptor", name)
		}
	}

	// A scheme whose tweak changes the switch config must differ from
	// the same name without it (fig24-style parameterized schemes).
	tweaked := base
	tweaked.sc = scheme{name: "ppt", tweak: tweakINT, make: base.sc.make}
	if specDesc(tweaked) == baseDesc {
		t.Error("scheme tweak (post-tweak switch config) does not reach the descriptor")
	}

	// The oracle's fill fraction, and which observer stores the extras
	// (fig28 and fig29 run the same cells), must each reach it too.
	if specDesc(hypothetical(Options{}, base, 0.5)) == specDesc(hypothetical(Options{}, base, 1.0)) {
		t.Error("the hypothetical scheme's fill fraction does not reach the descriptor")
	}
	occ, eff := base, base
	occ.obs, eff.obs = occupancy, efficiency
	if specDesc(occ) == specDesc(eff) {
		t.Error("the observer tag does not reach the descriptor")
	}
}

// TestCacheCrossEngineHit is the acceptance criterion: a cell computed
// at -shards=1 must HIT when replayed at -shards=4 -parallel=4,
// with byte-identical rendered output. This is the cache banking the
// golden matrix's engine-equivalence guarantee.
func TestCacheCrossEngineHit(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fig12 twice")
	}
	c := testExpCache(t)
	run := func(shards, parallel int) (*Result, string) {
		res, err := RunByID("fig12", Options{
			Flows: 24, Seed: 1, Cache: c,
			Shards: shards, Parallel: parallel,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, res.Render() + "\n--- csv ---\n" + res.CSV()
	}
	cold, coldOut := run(1, 1)
	if cold.Cache == nil || cold.Cache.Misses == 0 || cold.Cache.Hits != 0 {
		t.Fatalf("cold run cache stats: %+v", cold.Cache)
	}
	warm, warmOut := run(4, 4)
	if warm.Cache == nil {
		t.Fatal("warm run reported no cache stats")
	}
	if warm.Cache.Misses != 0 || warm.Cache.Hits+warm.Cache.Shared != cold.Cache.Misses {
		t.Fatalf("cross-engine replay was not a full hit: cold %+v, warm %+v", cold.Cache, warm.Cache)
	}
	if coldOut != warmOut {
		t.Fatalf("cached replay differs from fresh run:\n--- cold ---\n%s\n--- warm ---\n%s", coldOut, warmOut)
	}
	if warm.Events != 0 {
		t.Fatalf("warm run executed %d scheduler events; a full-hit run must simulate nothing", warm.Events)
	}
}

// TestCacheReplaysExtras covers the cells whose rows carry extras
// computed from the environment: on a hit there is no environment, so
// the extras must replay from the stored value, byte-identically.
func TestCacheReplaysExtras(t *testing.T) {
	if testing.Short() {
		t.Skip("runs five experiments twice")
	}
	// fig15: ablation extras (low-eff/low-drops/...); fig3: oracle cells
	// with switch-drops; scale1M: spill extras (resident_peak/spilled);
	// fig20: the utilization sampler, the oracle among its cells; fig28:
	// the occupancy sampler.
	for _, tc := range []struct {
		id    string
		flows int
	}{
		{"fig15", 20},
		{"fig3", 12},
		{"scale1M", 2_000},
		{"fig20", 20},
		{"fig28", 20},
	} {
		tc := tc
		t.Run(tc.id, func(t *testing.T) {
			t.Parallel()
			c := testExpCache(t)
			run := func() (*Result, string) {
				res, err := RunByID(tc.id, Options{Flows: tc.flows, Seed: 1, Cache: c})
				if err != nil {
					t.Fatal(err)
				}
				return res, res.Render() + "\n--- csv ---\n" + res.CSV()
			}
			cold, coldOut := run()
			warm, warmOut := run()
			if warm.Cache.Misses != 0 || warm.Cache.Hits+warm.Cache.Shared == 0 {
				t.Fatalf("warm run missed: cold %+v, warm %+v", cold.Cache, warm.Cache)
			}
			if coldOut != warmOut {
				t.Fatalf("replayed extras differ:\n--- cold ---\n%s\n--- warm ---\n%s", coldOut, warmOut)
			}
			for _, row := range warm.Rows {
				if len(row.Extra) == 0 {
					t.Fatalf("row %q lost its extras on replay", row.Label)
				}
			}
		})
	}
}

// TestCacheVerifyMatrix runs a warm cache in verify mode across the
// engine matrix: every hit recomputes and byte-compares against the
// stored entry. Any divergence — cross-shard-count, cross-worker-count —
// fails here before it can poison a sweep.
func TestCacheVerifyMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fig12 across the engine matrix")
	}
	c := testExpCache(t)
	o := Options{Flows: 24, Seed: 1, Cache: c}
	if _, err := RunByID("fig12", o); err != nil {
		t.Fatal(err)
	}
	for _, combo := range []struct{ shards, parallel int }{
		{1, 1},
		{4, 1},
		{4, 4},
		{2, 4},
	} {
		v := o
		v.Shards, v.Parallel = combo.shards, combo.parallel
		v.CacheVerify = true
		res, err := RunByID("fig12", v)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cache.Mismatches != 0 {
			t.Fatalf("verify mismatch at shards=%d parallel=%d: %+v\nnotes: %v",
				combo.shards, combo.parallel, res.Cache, res.Notes)
		}
		if res.Cache.Verified == 0 {
			t.Fatalf("verify mode did not verify anything at %+v: %+v", combo, res.Cache)
		}
		for _, n := range res.Notes {
			if strings.Contains(n, "cell failed") {
				t.Fatalf("verify run failed a cell: %v", res.Notes)
			}
		}
	}
}

// TestCacheVerifyWithoutCacheRejected pins the API-level validation
// mirrored by the pptsim flag check.
func TestCacheVerifyWithoutCacheRejected(t *testing.T) {
	if _, err := RunByID("table2", Options{CacheVerify: true}); err == nil {
		t.Fatal("CacheVerify without Cache was accepted")
	}
}

// TestRunByIDRejectsBadScale pins the up-front checks on the workload
// scale: a negative flow count or a negative, NaN or infinite load fails
// RunByID with one error naming the value, before any cell runs.
func TestRunByIDRejectsBadScale(t *testing.T) {
	for _, tc := range []struct {
		id   string
		o    Options
		want string
	}{
		{"fig8", Options{Flows: -5}, "-5"},
		{"scale1M", Options{Flows: -3}, "-3"},
		{"fig8", Options{Load: -1}, "-1"},
		{"fig8", Options{Load: math.NaN()}, "NaN"},
		{"fig8", Options{Load: math.Inf(1)}, "+Inf"},
		{"fig8", Options{Load: math.Inf(-1)}, "-Inf"},
	} {
		if _, err := RunByID(tc.id, tc.o); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("RunByID(%s, Flows=%d Load=%v) error = %v, want one naming %s",
				tc.id, tc.o.Flows, tc.o.Load, err, tc.want)
		}
	}
}

// TestRunByIDRejectsUnknownScheme: a scheme filter with a name no
// experiment knows fails RunByID with one line that names it and lists
// the valid names, instead of an empty table or a silently dropped
// cell; a filter of valid names runs.
func TestRunByIDRejectsUnknownScheme(t *testing.T) {
	for _, schemes := range [][]string{{"bogus"}, {"ppt", "bogus"}} {
		_, err := RunByID("fig12", Options{Flows: 4, Schemes: schemes})
		if err == nil || !strings.Contains(err.Error(), `"bogus"`) ||
			!strings.Contains(err.Error(), "hypothetical") || strings.Contains(err.Error(), "\n") {
			t.Errorf("RunByID(fig12, Schemes=%v) error = %v, want one line naming \"bogus\" and the valid names", schemes, err)
		}
	}
	res, err := RunByID("fig12", Options{Flows: 4, Schemes: []string{"ppt", "hypothetical"}})
	if err != nil || len(res.Rows) == 0 {
		t.Fatalf("RunByID(fig12, Schemes=[ppt hypothetical]) = %v rows, error %v; want ppt's rows", res, err)
	}
}

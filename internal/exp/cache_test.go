package exp

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"ppt/internal/cache"
	"ppt/internal/sim"
	"ppt/internal/transport"
	"ppt/internal/transport/dctcp"
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

// keyTestSpec is the cell the descriptor tests vary.
func keyTestSpec() runSpec {
	return runSpec{
		fab: simFabric(3, 2, 8), proto: ppt.Proto{},
		dist: workload.WebSearch, pattern: workload.AllToAll{N: 24},
		load: 0.5, flows: 100, seed: 3, obs: switchDrops,
	}
}

// TestCacheKeyExcludesEngineKnobs pins the key construction contract by
// reflection: changing any field of a cell's runSpec, its fabric or its
// topo.Config moves the cell descriptor, except the enumerated inputs a
// descriptor leaves out — the engine knobs the golden matrix proves
// outcome-invisible, and the observer's reader, which its tag keys.
// A protocol holding a func is refused.
func TestCacheKeyExcludesEngineKnobs(t *testing.T) {
	outside := []string{"runSpec.shards", "runSpec.spillChunk", "Config.Shards", "observer.arm"}
	spec := keyTestSpec()
	base := specDesc(spec)
	// other gives a second value for each field type whose kind alone
	// does not.
	other := map[reflect.Type]any{
		reflect.TypeOf(&spec.proto).Elem():   dctcp.Proto{},
		reflect.TypeOf(&spec.pattern).Elem(): workload.Incast{N: 24},
		reflect.TypeOf(spec.dist):            workload.DataMining,
		reflect.TypeOf(spec.obs.arm):         occupancy.arm,
	}
	var visit func(v reflect.Value)
	visit = func(v reflect.Value) {
		for i := range v.NumField() {
			field := v.Type().Field(i)
			name := v.Type().Name() + "." + field.Name
			// A settable view of the (unexported) field.
			f := reflect.NewAt(field.Type, unsafe.Pointer(v.Field(i).UnsafeAddr())).Elem()
			if f.Kind() == reflect.Struct {
				visit(f)
				continue
			}
			old := reflect.New(f.Type()).Elem()
			old.Set(f)
			switch f.Kind() {
			case reflect.Bool:
				f.SetBool(!f.Bool())
			case reflect.Int, reflect.Int64:
				f.SetInt(f.Int() + 1)
			case reflect.Float64:
				f.SetFloat(f.Float() + 0.25)
			case reflect.String:
				f.SetString(f.String() + "x")
			default:
				alt, ok := other[f.Type()]
				if !ok {
					t.Fatalf("%s: no second value for type %s", name, f.Type())
				}
				f.Set(reflect.ValueOf(alt))
			}
			moved := specDesc(spec) != base
			f.Set(old)
			if want := !slices.Contains(outside, name); moved != want {
				t.Errorf("%s: changing it moved the descriptor = %v, want %v", name, moved, want)
			}
		}
	}
	visit(reflect.ValueOf(&spec).Elem())
	if specDesc(spec) != base {
		t.Fatal("the walk did not restore the spec")
	}

	spec.proto = ppt.Proto{Cfg: ppt.Config{OnFlowState: func(uint32, sim.Time, ppt.FlowState) {}}}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a protocol holding a set OnFlowState was keyed instead of refused")
			}
		}()
		specDesc(spec)
	}()
}

// TestSchemeNamesPinParameters pins what a scheme's name and value stand
// for: the table is keyed by each protocol's Name(), PPT's four
// ablations are named apart from PPT and each other (figs 15–18 label
// their rows by name), and every scheme, the oracle's fill fractions
// and the ablations get distinct descriptors.
func TestSchemeNamesPinParameters(t *testing.T) {
	protos := []transport.Protocol{ppt.Oracle{FillFraction: 0.5}, ppt.Oracle{FillFraction: 1.0}}
	for key, p := range baseSchemes() {
		if got := p.Name(); got != key {
			t.Errorf("scheme %q is a protocol named %q", key, got)
		}
		protos = append(protos, p)
	}
	names := map[string]bool{"ppt": true}
	for _, cfg := range []ppt.Config{
		{DisableECN: true}, {DisableEWD: true}, {DisableScheduling: true}, {DisableIdentification: true},
	} {
		p := ppt.Proto{Cfg: cfg}
		if names[p.Name()] {
			t.Errorf("ablation %+v reuses the scheme name %q", cfg, p.Name())
		}
		names[p.Name()] = true
		protos = append(protos, p)
	}
	spec := keyTestSpec()
	seen := map[string]string{}
	for _, p := range protos {
		spec.proto = p
		desc := specDesc(spec)
		if prev, dup := seen[desc]; dup {
			t.Errorf("%#v and %s share a descriptor", p, prev)
		}
		seen[desc] = fmt.Sprintf("%#v", p)
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

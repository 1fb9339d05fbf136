package exp

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"ppt/internal/stats"
)

// TestEveryExperimentRunsAtSmokeScale is the registry's integration
// test: every registered table/figure must run to completion at a tiny
// workload size and produce at least one row, with no failed cell. It
// goes through RunByID, which turns every failed pool cell — a run-end
// audit panic included — into a "cell failed" note.
func TestEveryExperimentRunsAtSmokeScale(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	for _, e := range List() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			flows := 25
			if e.ID == "ident" {
				flows = 5000
			}
			res, err := RunByID(e.ID, Options{Flows: flows, Seed: 2})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) == 0 {
				t.Fatalf("%s produced no rows", e.ID)
			}
			for _, n := range res.Notes {
				if strings.HasPrefix(n, "cell failed") {
					t.Errorf("%s: %s", e.ID, n)
				}
			}
			if res.ID != e.ID {
				t.Fatalf("result id %q != %q", res.ID, e.ID)
			}
			out := res.Render()
			if !strings.Contains(out, e.ID) {
				t.Fatalf("render missing id:\n%s", out)
			}
		})
	}
}

// TestEveryRowHonorsRepeats: under Repeats 2 every row of a table is
// the mean of the same row at seeds 1 and 2 run alone — its Summary by
// meanSummary, each extra by the mean — whatever way the experiment
// builds the row: a scheme comparison, an oracle fill fraction, an
// ablation, a fabric edit, a send buffer or an ECN threshold.
func TestEveryRowHonorsRepeats(t *testing.T) {
	if testing.Short() {
		t.Skip("runs nine experiments three times")
	}
	same := func(a, b float64) bool { return a == b || a != a && b != b }
	for _, id := range []string{"fig1", "fig2", "fig3", "fig15", "fig20", "fig24", "fig27", "fig28", "fig29"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			run := func(seed int64, repeats int) []Row {
				res, err := RunByID(id, Options{Flows: 12, Seed: seed, Repeats: repeats})
				if err != nil {
					t.Fatal(err)
				}
				return res.Rows
			}
			mean, seed1, seed2 := run(1, 2), run(1, 1), run(2, 1)
			if len(mean) != len(seed1) || len(mean) != len(seed2) {
				t.Fatalf("row counts %d, %d, %d", len(mean), len(seed1), len(seed2))
			}
			for i, row := range mean {
				a, b := seed1[i], seed2[i]
				if want := meanSummary([]stats.Summary{a.Sum, b.Sum}); row.Sum != want {
					t.Errorf("%s: Summary %+v, want the mean of seeds 1 and 2, %+v", row.Label, row.Sum, want)
				}
				if len(row.Extra) != len(a.Extra) {
					t.Errorf("%s: extras %v, want the keys of %v", row.Label, row.Extra, a.Extra)
				}
				for k, v := range a.Extra {
					if want := (v + b.Extra[k]) / 2; !same(row.Extra[k], want) {
						t.Errorf("%s: %s = %g, want the mean of seeds 1 and 2, %g", row.Label, k, row.Extra[k], want)
					}
				}
			}
		})
	}
}

// TestEveryRowHonorsSchemes: a Schemes filter keeps exactly the rows
// whose protocol it names, however the experiment builds them (every
// PPT variant counts as ppt, the oracle as hypothetical), and a filter
// that leaves an experiment no row is an error. Static tables keep
// their rows.
func TestEveryRowHonorsSchemes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs eleven small experiments")
	}
	for _, tc := range []struct {
		id, scheme string
		want       []string // nil: RunByID fails with ErrNoRows
	}{
		{"fig1", "ppt", nil},
		{"fig2", "hypothetical", []string{"hypothetical"}},
		{"fig3", "dctcp", nil},
		{"fig5", "dctcp", nil},
		{"fig12", "hypothetical", nil},
		{"fig15", "ppt", []string{"ppt", "ppt-noecn"}},
		{"fig19", "ppt", []string{"ppt"}},
		{"fig20", "homa", nil},
		{"fig20", "ppt", []string{"ppt"}},
		{"fig24", "rc3", []string{"rc3-low20%", "rc3-low40%", "rc3-low60%", "rc3-low80%"}},
		{"fig24", "ppt", []string{"ppt"}},
		{"fig27", "dctcp", nil},
	} {
		t.Run(tc.id+"/"+tc.scheme, func(t *testing.T) {
			t.Parallel()
			res, err := RunByID(tc.id, Options{Flows: 12, Schemes: []string{tc.scheme}})
			if tc.want == nil {
				if !errors.Is(err, ErrNoRows) {
					t.Fatalf("got %v, want ErrNoRows", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, r := range res.Rows {
				got = append(got, r.Label)
			}
			if !slices.Equal(got, tc.want) {
				t.Fatalf("rows %v, want %v", got, tc.want)
			}
		})
	}
	all, err := RunByID("table1", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if kept, err := RunByID("table1", Options{Schemes: []string{"ppt"}}); err != nil || len(kept.Rows) != len(all.Rows) {
		t.Fatalf("table1 under a filter: %v, want its %d rows", err, len(all.Rows))
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
	if _, err := RunByID("nope", Options{}); err == nil {
		t.Fatal("RunByID accepted unknown id")
	}
}

func TestListSortedNaturally(t *testing.T) {
	ids := List()
	for i, e := range ids {
		if i == 0 {
			continue
		}
		if !natLess(ids[i-1].ID, e.ID) && ids[i-1].ID != e.ID {
			t.Fatalf("order broken: %s before %s", ids[i-1].ID, e.ID)
		}
	}
	// fig2 must come before fig10 (natural, not lexicographic).
	var i2, i10 int
	for i, e := range ids {
		if e.ID == "fig2" {
			i2 = i
		}
		if e.ID == "fig10" {
			i10 = i
		}
	}
	if i2 > i10 {
		t.Fatal("fig2 sorted after fig10")
	}
}

func TestOptionsSchemeFilter(t *testing.T) {
	o := Options{Schemes: []string{"ppt", "dctcp"}}
	if !o.wants("ppt") || !o.wants("dctcp") {
		t.Fatal("filter rejects listed schemes")
	}
	if o.wants("homa") {
		t.Fatal("filter accepts unlisted scheme")
	}
	var all Options
	if !all.wants("anything") {
		t.Fatal("empty filter must accept everything")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults(123)
	if o.Flows != 123 || o.Seed != 1 {
		t.Fatalf("defaults = %+v", o)
	}
	o = Options{Flows: 7, Seed: 9}.withDefaults(123)
	if o.Flows != 7 || o.Seed != 9 {
		t.Fatalf("overrides lost: %+v", o)
	}
}

func TestCompareRespectsFilter(t *testing.T) {
	rows := compare(Options{Flows: 10, Seed: 1, Schemes: []string{"dctcp"}},
		runSpec{fab: testbedFabric()}, []string{"ppt", "homa"})
	if len(rows) != 0 {
		t.Fatalf("the filter let through %+v", rows)
	}
}

func TestNatLess(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"fig2", "fig10", true},
		{"fig10", "fig2", false},
		{"fig1", "table1", true},
		{"ident", "table1", true},
	}
	for _, c := range cases {
		if got := natLess(c.a, c.b); got != c.want {
			t.Errorf("natLess(%q,%q) = %v", c.a, c.b, got)
		}
	}
}

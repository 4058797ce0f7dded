package icdb

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"icdb/internal/relstore"
)

func newExploreDB(t *testing.T) *DB {
	t.Helper()
	db, err := Open(relstore.New())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return db
}

// TestExploreMaterializeMatchesGenerate is the differential satellite: a
// materializing sweep must register, at every swept width, an
// implementation byte-identical to what a direct Generate call at that
// binding point registers — same row, same estimators, same recorded
// exploration.
func TestExploreMaterializeMatchesGenerate(t *testing.T) {
	swept := newExploreDB(t)
	direct := newExploreDB(t)

	pts, err := swept.Explore("gen_cnt", 4, 64, 4, nil, true)
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if len(pts) != 16 {
		t.Fatalf("sweep 4..64 step 4 evaluated %d points, want 16", len(pts))
	}
	for _, pt := range pts {
		im, reused, err := direct.Generate("gen_cnt", map[string]int{"size": pt.Width})
		if err != nil {
			t.Fatalf("Generate(size=%d): %v", pt.Width, err)
		}
		if reused {
			t.Fatalf("direct Generate(size=%d) on a fresh DB claims reuse", pt.Width)
		}
		if pt.Impl != im.Name {
			t.Fatalf("sweep registered %q at width %d, direct Generate registered %q", pt.Impl, pt.Width, im.Name)
		}
		sw, err := swept.ImplByName(pt.Impl)
		if err != nil {
			t.Fatalf("sweep impl %s not queryable: %v", pt.Impl, err)
		}
		if !reflect.DeepEqual(sw, im) {
			t.Fatalf("width %d: sweep impl differs from direct Generate:\nsweep:  %+v\ndirect: %+v", pt.Width, sw, im)
		}
		se, _ := swept.Estimators(pt.Impl)
		de, _ := direct.Estimators(pt.Impl)
		if !reflect.DeepEqual(se, de) {
			t.Fatalf("width %d: estimators differ: %v vs %v", pt.Width, se, de)
		}
	}
	sx, err := swept.Explorations()
	if err != nil {
		t.Fatal(err)
	}
	dx, err := direct.Explorations()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sx, dx) {
		t.Fatalf("recorded explorations differ:\nsweep:  %+v\ndirect: %+v", sx, dx)
	}
}

// TestExploreRerunIsDeduped asserts a repeated sweep is a complete
// no-op at the store layer: no duplicate exploration rows, and
// Store.Generation — which counts effective mutations, and therefore
// journaled records — does not move. This holds across modes, too:
// estimate-only and materializing sweeps record identical rows, and a
// materializing re-run reuses every implementation.
func TestExploreRerunIsDeduped(t *testing.T) {
	db := newExploreDB(t)
	if _, err := db.Explore("gen_cnt", 4, 32, 4, nil, false); err != nil {
		t.Fatalf("Explore: %v", err)
	}
	n1, err := db.ExplorationCount()
	if err != nil {
		t.Fatal(err)
	}
	if n1 != 8 {
		t.Fatalf("first sweep recorded %d points, want 8", n1)
	}
	gen := db.Store().Generation()
	if _, err := db.Explore("gen_cnt", 4, 32, 4, nil, false); err != nil {
		t.Fatalf("re-run Explore: %v", err)
	}
	if n2, _ := db.ExplorationCount(); n2 != n1 {
		t.Fatalf("re-run grew explorations %d -> %d", n1, n2)
	}
	if g := db.Store().Generation(); g != gen {
		t.Fatalf("no-op re-run bumped Store.Generation %d -> %d", gen, g)
	}

	// Cross-mode: materializing the same range registers impls but the
	// exploration rows are value-equal — no new rows.
	pts, err := db.Explore("gen_cnt", 4, 32, 4, nil, true)
	if err != nil {
		t.Fatalf("materializing Explore: %v", err)
	}
	if n3, _ := db.ExplorationCount(); n3 != n1 {
		t.Fatalf("cross-mode re-run grew explorations %d -> %d", n1, n3)
	}
	// And a second materializing run reuses every implementation and is
	// again journal-silent.
	gen = db.Store().Generation()
	pts, err = db.Explore("gen_cnt", 4, 32, 4, nil, true)
	if err != nil {
		t.Fatalf("materializing re-run: %v", err)
	}
	for _, pt := range pts {
		if !pt.Reused {
			t.Fatalf("materializing re-run did not reuse width-%d impl %s", pt.Width, pt.Impl)
		}
	}
	if g := db.Store().Generation(); g != gen {
		t.Fatalf("materializing re-run bumped Store.Generation %d -> %d", gen, g)
	}
}

// TestExploreEstimateOnlyRegistersNoImpls asserts the default sweep
// costs one estimator evaluation per point: exploration rows appear,
// the implementations relation does not move, and each point's values
// equal GeneratorCost at that binding.
func TestExploreEstimateOnlyRegistersNoImpls(t *testing.T) {
	db := newExploreDB(t)
	before, err := db.Impls()
	if err != nil {
		t.Fatal(err)
	}
	pts, err := db.Explore("gen_cnt", 8, 16, 8, nil, false)
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	after, err := db.Impls()
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("estimate-only sweep registered impls: %d -> %d", len(before), len(after))
	}
	g, err := db.GeneratorByName("gen_cnt")
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range pts {
		if pt.Impl != "" || pt.Reused {
			t.Fatalf("estimate-only point %+v carries an impl", pt)
		}
		area, delay, cost, err := db.GeneratorCost(g, map[string]int{"size": pt.Width})
		if err != nil {
			t.Fatal(err)
		}
		if pt.Area != area || pt.Delay != delay || pt.Cost != cost {
			t.Fatalf("width %d: sweep point (%g,%g,%g) != GeneratorCost (%g,%g,%g)",
				pt.Width, pt.Area, pt.Delay, pt.Cost, area, delay, cost)
		}
	}
}

// TestExploreErrors pins the sweep's validation surface: bad ranges and
// steps, ranges escaping the generator's width range (an error, not a
// clamp), binding the swept parameter, extra bindings, and unknown
// generators.
func TestExploreErrors(t *testing.T) {
	db := newExploreDB(t)
	cases := []struct {
		name  string
		gen   string
		lo    int
		hi    int
		step  int
		fixed map[string]int
		want  string
	}{
		{"zero lo", "gen_cnt", 0, 8, 1, nil, "bad width range 0..8"},
		{"inverted range", "gen_cnt", 8, 4, 1, nil, "bad width range 8..4"},
		{"zero step", "gen_cnt", 4, 8, 0, nil, "step 0 must be at least 1"},
		{"range above generator max", "gen_cnt", 4, 200, 1, nil, "outside generator range [1,128]"},
		{"binds swept parameter", "gen_cnt", 4, 8, 1, map[string]int{"size": 4}, `"size" is the swept parameter`},
		{"negative binding", "gen_cnt", 4, 8, 1, map[string]int{"stages": -1}, "must be non-negative"},
		{"extra binding", "gen_cnt", 4, 8, 1, map[string]int{"stages": 2}, "want parameters [size]"},
		{"unknown generator", "gen_nope", 4, 8, 1, nil, `generator "gen_nope"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := db.Explore(c.gen, c.lo, c.hi, c.step, c.fixed, false)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Explore(%s, %d..%d step %d, %v) error = %v, want substring %q",
					c.gen, c.lo, c.hi, c.step, c.fixed, err, c.want)
			}
		})
	}
	if n, _ := db.ExplorationCount(); n != 0 {
		t.Fatalf("failed sweeps recorded %d exploration rows", n)
	}
}

// TestEstimateImplRecordsExploration asserts EstimateImpl feeds the
// explorations relation under the implementation's own name, so stored
// implementations appear in frontier queries next to generator sweeps.
func TestEstimateImplRecordsExploration(t *testing.T) {
	db := newExploreDB(t)
	area, delay, _, err := db.EstimateImpl("cnt_up", 8)
	if err != nil {
		t.Fatalf("EstimateImpl: %v", err)
	}
	xs, err := db.Explorations()
	if err != nil {
		t.Fatal(err)
	}
	if len(xs) != 1 {
		t.Fatalf("recorded %d explorations, want 1 (%+v)", len(xs), xs)
	}
	e := xs[0]
	if e.Generator != "cnt_up" || e.Bindings != "width=8" || e.Width != 8 || e.Area != area || e.Delay != delay {
		t.Fatalf("EstimateImpl recorded %+v", e)
	}
	// The point shows up on the counter frontier alongside a sweep.
	if _, err := db.Explore("gen_cnt", 4, 16, 4, nil, false); err != nil {
		t.Fatal(err)
	}
	var ids []string
	err = db.Pareto(ParetoQuery{Component: "counter", Dominated: true}, func(p ParetoPoint) bool {
		ids = append(ids, p.PointID())
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 5 // 4 sweep points + 1 estimated impl
	if len(ids) != want {
		t.Fatalf("counter design space has %d points (%v), want %d", len(ids), ids, want)
	}
	found := false
	for _, id := range ids {
		if id == "cnt_up[width=8]" {
			found = true
		}
	}
	if !found {
		t.Fatalf("estimated impl missing from component design space: %v", ids)
	}
}

// TestRecordExplorationValidation pins RecordExploration's input checks.
func TestRecordExplorationValidation(t *testing.T) {
	db := newExploreDB(t)
	cases := []struct {
		e    Exploration
		want string
	}{
		{Exploration{}, "no generator"},
		{Exploration{Generator: "g"}, "no bindings"},
		{Exploration{Generator: "g", Bindings: "size=1"}, "width 0 must be at least 1"},
		{Exploration{Generator: "g", Bindings: "size=1", Width: 1, Component: "gizmo"}, `unknown component type "gizmo"`},
		{Exploration{Generator: "g", Bindings: "size=1", Width: 1, Component: "Counter", Area: math.NaN()},
			"exploration g[size=1]: area NaN is not a finite number"},
		{Exploration{Generator: "g", Bindings: "size=1", Width: 1, Component: "Counter", Area: math.Inf(-1)},
			"exploration g[size=1]: area -Inf is not a finite number"},
	}
	for i, c := range cases {
		err := db.RecordExploration(c.e)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("case %d: RecordExploration(%+v) = %v, want substring %q", i, c.e, err, c.want)
		}
	}
	// Component types normalize the same way the rest of the schema does.
	if err := db.RecordExploration(Exploration{
		Generator: "g", Bindings: "size=1", Width: 1, Component: "counter", Area: 1, Delay: 1,
	}); err != nil {
		t.Fatalf("RecordExploration(counter): %v", err)
	}
	xs, err := db.Explorations()
	if err != nil {
		t.Fatal(err)
	}
	if len(xs) != 1 || string(xs[0].Component) != "Counter" {
		t.Fatalf("normalized component = %+v", xs)
	}
}

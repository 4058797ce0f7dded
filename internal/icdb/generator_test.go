package icdb

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"icdb/internal/genus"
	"icdb/internal/relstore"
)

// regScaled registers a minimal ADD implementation with the given scalar
// estimates and optional estimator expressions.
func regScaled(t *testing.T, db *DB, name string, area, delay float64, areaExpr, delayExpr string) {
	t.Helper()
	src := "NAME: " + name + "; PARAMETER: size; INORDER: a, b; OUTORDER: s; { s = a (+) b; }"
	err := db.RegisterImpl(Impl{
		Name:      name,
		Component: genus.CompAdderSubtractor,
		Style:     "test",
		Functions: []genus.Function{genus.FuncADD},
		WidthMin:  1, WidthMax: 64,
		Area: area, Delay: delay,
		Params: []string{"size"},
		Source: src,
	})
	if err != nil {
		t.Fatal(err)
	}
	if areaExpr != "" {
		if err := db.RegisterEstimator(name, "area", areaExpr); err != nil {
			t.Fatal(err)
		}
	}
	if delayExpr != "" {
		if err := db.RegisterEstimator(name, "delay", delayExpr); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAtWidthEvaluatesEstimators: with a width evaluation point, the
// engine filters, ranks, and reports estimator-evaluated values — and a
// width-scaling implementation that wins on per-bit cost loses to a
// flat one once the width grows.
func TestAtWidthEvaluatesEstimators(t *testing.T) {
	db := openTestDB(t)
	// flat: constant estimator, 20 at any width. scaled: 2 per bit.
	regScaled(t, db, "flat_add", 20, 0, "area", "delay")
	regScaled(t, db, "scaled_add", 2, 0, "area * width", "delay")

	for _, c := range []struct {
		width int
		first string
		area  float64
	}{
		{4, "scaled_add", 8}, // 2*4 = 8 beats 20
		{16, "flat_add", 20}, // 2*16 = 32 loses to 20
		{10, "flat_add", 20}, // tie at 2*10=20 broken by name
	} {
		cands, err := db.FindAll(Query{Functions: []genus.Function{genus.FuncADD}, Width: c.width, Order: Order{Attr: "area"}})
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, cand := range cands {
			got = append(got, cand.Impl.Name)
		}
		if len(got) < 2 || got[0] != c.first {
			t.Errorf("at width %d: order = %v, want %s first", c.width, got, c.first)
			continue
		}
		if cands[0].Area != c.area {
			t.Errorf("at width %d: Area = %g, want %g", c.width, cands[0].Area, c.area)
		}
	}
}

// TestAtWidthFiltersCoverage: a width point keeps only implementations
// whose width range covers it, like ForWidth.
func TestAtWidthFiltersCoverage(t *testing.T) {
	db := openTestDB(t)
	cands, err := db.FindAll(Query{Width: 65, Order: Order{Attr: OrderKeyCost}}) // builtins stop at 64
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 0 {
		t.Errorf("at width 65 kept %d candidates", len(cands))
	}
}

// TestAtWidthConstraintsSeeEvaluatedValues: a "with area <= n" filter at
// a width point compares the estimator value, and Where expressions may
// reference the width attribute.
func TestAtWidthConstraintsSeeEvaluatedValues(t *testing.T) {
	db := openTestDB(t)
	regScaled(t, db, "scaled_add", 2, 1, "area * width", "delay")
	le, err := AttrCmp("area", CmpLE, 10)
	if err != nil {
		t.Fatal(err)
	}
	has := func(cands []Candidate, name string) bool {
		for _, c := range cands {
			if c.Impl.Name == name {
				return true
			}
		}
		return false
	}
	// At width 4 the evaluated area is 8 <= 10; at width 8 it is 16.
	add := func(width int, c Constraint) ([]Candidate, error) {
		return db.FindAll(Query{Functions: []genus.Function{genus.FuncADD}, Constraints: []Constraint{c}, Width: width, Order: Order{Attr: OrderKeyCost}})
	}
	in4, err := add(4, le)
	if err != nil {
		t.Fatal(err)
	}
	in8, err := add(8, le)
	if err != nil {
		t.Fatal(err)
	}
	if !has(in4, "scaled_add") || has(in8, "scaled_add") {
		t.Errorf("area<=10 filter: width4 has=%v width8 has=%v, want true/false",
			has(in4, "scaled_add"), has(in8, "scaled_add"))
	}
	wq, err := Where("width >= 6")
	if err != nil {
		t.Fatal(err)
	}
	byW, err := add(8, wq)
	if err != nil {
		t.Fatal(err)
	}
	if len(byW) == 0 {
		t.Error("width attribute not visible to Where at an evaluation point")
	}
}

// TestAtWidthTopKMatchesUnbounded: the bounded heap and the unbounded
// sort agree under width-aware ranking.
func TestAtWidthTopKMatchesUnbounded(t *testing.T) {
	db := openTestDB(t)
	regScaled(t, db, "flat_add", 20, 3, "area", "delay")
	regScaled(t, db, "scaled_add", 2, 1, "area * width", "delay * width")
	q := Query{Functions: []genus.Function{genus.FuncADD}, Width: 16, Order: Order{Attr: "delay"}}
	all, err := db.FindAll(q)
	if err != nil {
		t.Fatal(err)
	}
	q.Limit = 2
	top, err := db.FindAll(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) < 2 || len(top) != 2 {
		t.Fatalf("result sizes: all=%d top=%d", len(all), len(top))
	}
	if !reflect.DeepEqual(all[:2], top) {
		t.Errorf("top-2 = %+v, want unbounded truncation %+v", top, all[:2])
	}
}

// TestAtWidthRejectsConflictsAndInvalid: an invalid width point fails
// eagerly, with the same text, on the ranked, streaming and frontier
// paths. (A single Query.Width cannot hold two conflicting points.)
func TestAtWidthRejectsConflictsAndInvalid(t *testing.T) {
	db := openTestDB(t)
	const want = "icdb: at width -1: width must be at least 1"
	if _, err := db.FindAll(Query{Width: -1, Order: Order{Attr: OrderKeyCost}}); err == nil || err.Error() != want {
		t.Errorf("ranked Width -1: %v, want %s", err, want)
	}
	if err := db.Find(Query{Width: -1}, func(Candidate) bool { return true }); err == nil || err.Error() != want {
		t.Errorf("streamed Width -1: %v, want %s", err, want)
	}
	if err := db.Pareto(ParetoQuery{Width: -1}, func(ParetoPoint) bool { return true }); err == nil || err.Error() != want {
		t.Errorf("frontier Width -1: %v, want %s", err, want)
	}
	if err := db.Find(Query{Width: -3}, func(Candidate) bool { return true }); err == nil {
		t.Error("streaming path accepted an invalid width point")
	}
}

// TestConstantEstimatorsMatchScalarEngine is the equivalence pin: a
// catalog whose estimators are the constant expressions "area"/"delay"
// must produce candidate-for-candidate identical query, ordering, and
// TopK results at any width point as the scalar engine filtered to the
// same coverage.
func TestConstantEstimatorsMatchScalarEngine(t *testing.T) {
	scalar, err := Open(relstore.New())
	if err != nil {
		t.Fatal(err)
	}
	est, err := Open(relstore.New())
	if err != nil {
		t.Fatal(err)
	}
	impls, err := est.Impls()
	if err != nil {
		t.Fatal(err)
	}
	for _, im := range impls {
		// Overwrite the builtin width-scaling estimators with the
		// degenerate constant case.
		if err := est.RegisterEstimator(im.Name, "area", "area"); err != nil {
			t.Fatal(err)
		}
		if err := est.RegisterEstimator(im.Name, "delay", "delay"); err != nil {
			t.Fatal(err)
		}
	}
	for _, order := range []Order{{}, {Attr: "area"}, {Attr: "delay", Desc: true}, {Attr: "cost"}} {
		for _, k := range []int{0, 3} {
			want, err := scalar.FindAll(Query{Constraints: []Constraint{ForWidth(8)}, Order: order, Limit: k})
			if err != nil {
				t.Fatal(err)
			}
			got, err := est.FindAll(Query{Width: 8, Order: order, Limit: k})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("order %+v k=%d: constant-estimator engine diverged\n got %+v\nwant %+v",
					order, k, got, want)
			}
		}
	}
}

// TestEstimateImpl covers the point-estimate API: estimator evaluation,
// the scalar fallback, and range errors.
func TestEstimateImpl(t *testing.T) {
	db := openTestDB(t)
	// cnt_ripple carries the builtin linear estimators (area*width,
	// delay*width); its scalars are 7 and 9.
	area, delay, cost, err := db.EstimateImpl("cnt_ripple", 8)
	if err != nil {
		t.Fatal(err)
	}
	if area != 56 || delay != 72 || cost != 128 {
		t.Errorf("cnt_ripple at 8 = (%g, %g, %g), want (56, 72, 128)", area, delay, cost)
	}
	// An implementation with no estimators falls back to its scalars.
	regScaled(t, db, "plain_add", 5, 4, "", "")
	area, delay, _, err = db.EstimateImpl("plain_add", 32)
	if err != nil {
		t.Fatal(err)
	}
	if area != 5 || delay != 4 {
		t.Errorf("scalar fallback = (%g, %g), want (5, 4)", area, delay)
	}
	if _, _, _, err := db.EstimateImpl("cnt_ripple", 65); err == nil ||
		!strings.Contains(err.Error(), "width range") {
		t.Errorf("out-of-range estimate: %v", err)
	}
	if _, _, _, err := db.EstimateImpl("no_such", 8); err == nil {
		t.Error("unknown implementation accepted")
	}
}

// TestRegisterGeneratorValidation: every declared invariant is enforced.
func TestRegisterGeneratorValidation(t *testing.T) {
	db := openTestDB(t)
	ok := builtinGenerators()[0]
	cases := []struct {
		name   string
		mutate func(*Generator)
		want   string
	}{
		{"no name", func(g *Generator) { g.Name = "" }, "no name"},
		{"bad component", func(g *Generator) { g.Component = "Blob" }, "unknown component type"},
		{"no functions", func(g *Generator) { g.Functions = nil }, "executes no functions"},
		{"foreign function", func(g *Generator) { g.Functions = []genus.Function{genus.FuncMUL} }, "not executable"},
		{"bad width range", func(g *Generator) { g.WidthMin = 9; g.WidthMax = 3 }, "bad width range"},
		{"no size param", func(g *Generator) {
			g.Params = []string{"n"}
			g.Source = strings.Replace(g.Source, "PARAMETER: size;", "PARAMETER: n;", 1)
		}, `lacks the "size" width parameter`},
		{"empty estimator", func(g *Generator) { g.AreaExpr = " " }, "empty area estimator"},
		{"bad estimator", func(g *Generator) { g.DelayExpr = "width +" }, "bad delay estimator"},
		{"name mismatch", func(g *Generator) { g.Name = "other" }, "must match"},
		{"param mismatch", func(g *Generator) { g.Params = []string{"size", "extra"} }, "does not match"},
		{"repeated function", func(g *Generator) { g.Functions = append(g.Functions, g.Functions[0]) },
			"function " + string(ok.Functions[0]) + " is listed twice"},
	}
	for _, c := range cases {
		g := ok.Clone()
		c.mutate(&g)
		err := db.RegisterGenerator(g)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
}

// TestGenerateRegistersQueryableImpl: the acceptance path — a generated
// implementation is immediately visible to queries and the expander,
// carries the generator's estimators, and re-generation reuses it.
func TestGenerateRegistersQueryableImpl(t *testing.T) {
	db := openTestDB(t)
	im, reused, err := db.Generate("gen_sub", map[string]int{"size": 8})
	if err != nil {
		t.Fatal(err)
	}
	if reused {
		t.Error("first generation reported reused")
	}
	if im.Name != "gen_sub_size_8" || im.WidthMin != 8 || im.WidthMax != 8 {
		t.Errorf("generated impl = %+v", im)
	}
	if im.Area != 80 || im.Delay != 14 { // 10*8, 6+8
		t.Errorf("generated estimates = (%g, %g), want (80, 14)", im.Area, im.Delay)
	}
	// Queryable by function, and ranked width-aware.
	cands, err := db.FindAll(Query{Functions: []genus.Function{genus.FuncSUB}, Width: 8, Order: Order{Attr: OrderKeyCost}})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 1 || cands[0].Impl.Name != "gen_sub_size_8" {
		t.Errorf("query-by-SUB = %+v", cands)
	}
	// Estimators attached.
	ests, err := db.Estimators("gen_sub_size_8")
	if err != nil || ests["area"] != "10 * width" || ests["delay"] != "6 + width" {
		t.Errorf("attached estimators = %v (%v)", ests, err)
	}
	// Re-generation at the same point reuses the registered row.
	again, reused, err := db.Generate("gen_sub", map[string]int{"size": 8})
	if err != nil || !reused || again.Name != im.Name {
		t.Errorf("re-generate = %+v reused=%v err=%v", again, reused, err)
	}
	// Out-of-range and mis-bound points fail.
	if _, _, err := db.Generate("gen_sub", map[string]int{"size": 999}); err == nil ||
		!strings.Contains(err.Error(), "width range") {
		t.Errorf("out-of-range generate: %v", err)
	}
	if _, _, err := db.Generate("gen_sub", map[string]int{"n": 8}); err == nil {
		t.Error("mis-bound generate accepted")
	}
	if _, _, err := db.Generate("nope", map[string]int{"size": 8}); err == nil {
		t.Error("unknown generator accepted")
	}
}

// TestGeneratorPersistenceRoundTrip: generators, estimators, and
// generated implementations survive a snapshot round-trip under both
// open modes, and the reopened database keeps answering width-aware
// queries identically.
func TestGeneratorPersistenceRoundTrip(t *testing.T) {
	db := openTestDB(t)
	if _, _, err := db.Generate("gen_cnt", map[string]int{"size": 24}); err != nil {
		t.Fatal(err)
	}
	q := Query{Functions: []genus.Function{genus.FuncCOUNTER}, Width: 24, Order: Order{Attr: "area"}}
	want, err := db.FindAll(q)
	if err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(t.TempDir(), "db.snap")
	if err := db.Store().SaveSnapshot(snapPath); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []relstore.OpenMode{relstore.OpenEager, relstore.OpenLazy} {
		path := mode.String()
		st, err := relstore.OpenSnapshot(snapPath, relstore.SnapshotOptions{Mode: mode})
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		re, err := Open(st)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		g, err := re.GeneratorByName("gen_cnt")
		if err != nil || g.AreaExpr != "12 * width" {
			t.Fatalf("%s: generator lost: %+v (%v)", path, g, err)
		}
		got, err := re.FindAll(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: width-aware query diverged after reload\n got %+v\nwant %+v", path, got, want)
		}
	}
}

// TestGeneratorsByComponentUsesIndex: the component-keyed listing
// returns exactly that type's generators (served from the secondary
// index) and survives re-registration.
func TestGeneratorsByComponentUsesIndex(t *testing.T) {
	db := openTestDB(t)
	gens, err := db.GeneratorsByComponent(genus.CompCounter)
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 1 || gens[0].Name != "gen_cnt" {
		t.Errorf("Counter generators = %+v", gens)
	}
	if _, err := db.GeneratorsByComponent("Blob"); err == nil {
		t.Error("unknown component type accepted")
	}
	all, err := db.Generators()
	if err != nil || len(all) != 2 {
		t.Errorf("Generators() = %d entries (%v)", len(all), err)
	}
}

// TestOpenCreatesNewRelationsOnOldStores: a store persisted before the
// generator/estimator relations existed (built here as a copy of a
// seeded catalog without them) reopens cleanly, with the new tables
// bootstrapped and re-seeded and the old rows kept.
func TestOpenCreatesNewRelationsOnOldStores(t *testing.T) {
	src := openTestDB(t).Store()
	old := relstore.New()
	for _, sc := range Schemas() {
		if sc.Table == TableGenerators || sc.Table == TableEstimators {
			continue
		}
		if err := old.CreateTable(sc); err != nil {
			t.Fatal(err)
		}
		rows, err := src.Select(sc.Table, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if err := old.Insert(sc.Table, r); err != nil {
				t.Fatal(err)
			}
		}
	}
	re, err := Open(old)
	if err != nil {
		t.Fatalf("reopen without new relations: %v", err)
	}
	if _, err := re.GeneratorByName("gen_cnt"); err != nil {
		t.Errorf("generators not re-seeded: %v", err)
	}
	if ests, err := re.Estimators("add_ripple"); err != nil || len(ests) == 0 {
		t.Errorf("estimators not re-seeded: %v, %v", ests, err)
	}
	if _, err := re.ImplByName("add_ripple"); err != nil {
		t.Errorf("implementation lost: %v", err)
	}
}

// TestGeneratedImplNameIsInjective: distinct binding points must never
// collide onto one implementation name (a bare name+value concatenation
// would map {a:12, a1:3} and {a:13, a1:2} to the same string).
func TestGeneratedImplNameIsInjective(t *testing.T) {
	a := GeneratedImplName("g", map[string]int{"a": 12, "a1": 3})
	b := GeneratedImplName("g", map[string]int{"a": 13, "a1": 2})
	if a == b {
		t.Fatalf("colliding generated names: %q", a)
	}
	if got := GeneratedImplName("gen_cnt", map[string]int{"size": 16}); got != "gen_cnt_size_16" {
		t.Errorf("GeneratedImplName = %q, want gen_cnt_size_16", got)
	}
}

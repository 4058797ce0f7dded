package icdb

// White-box tests of the compiled-estimator path: the non-finite guard
// on all three evaluating paths, the deterministic generator-expression
// order, and the intern table the estimator cache and the generator
// paths share.

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"icdb/internal/genus"
	"icdb/internal/iif"
	"icdb/internal/relstore"
)

// TestNonFiniteEstimateIsAnError: an estimator whose result is NaN or
// ±Inf cannot be ranked (NaN has no order) or recorded, so the ranked
// find, the streamed find and EstimateImpl each refuse it, naming the
// estimator and the width — and EstimateImpl records nothing.
func TestNonFiniteEstimateIsAnError(t *testing.T) {
	for _, tc := range []struct{ attr, expr string }{
		{"area", "(0-8) ** (1/2)"}, // math.Pow(-8, 0.5) = NaN
		{"delay", "2 ** 2000"},     // +Inf
		{"area", "0 - 2 ** 2000"},  // -Inf
	} {
		db := openDB(t)
		if err := db.RegisterEstimator("add_ripple", tc.attr, tc.expr); err != nil {
			t.Fatal(err)
		}
		want := "icdb: estimator " + tc.attr + "(add_ripple) at width 8: result is not a finite number"

		add := Query{Functions: []genus.Function{genus.FuncADD}, Width: 8}
		_, err := db.FindAll(Query{Functions: add.Functions, Width: 8, Order: Order{Attr: "area"}, Limit: 2})
		if err == nil || err.Error() != want {
			t.Errorf("%s: ranked find error = %v, want %s", tc.expr, err, want)
		}
		err = db.Find(add, func(Candidate) bool { return true })
		if err == nil || err.Error() != want {
			t.Errorf("%s: streamed find error = %v, want %s", tc.expr, err, want)
		}
		before, cerr := db.ExplorationCount()
		if cerr != nil {
			t.Fatal(cerr)
		}
		_, _, _, err = db.EstimateImpl("add_ripple", 8)
		if err == nil || err.Error() != want {
			t.Errorf("%s: EstimateImpl error = %v, want %s", tc.expr, err, want)
		}
		if after, _ := db.ExplorationCount(); after != before {
			t.Errorf("%s: a refused estimate recorded %d exploration point(s)", tc.expr, after-before)
		}
		// A width-free query never evaluates the estimator and still answers.
		if _, err := db.FindAll(Query{Functions: add.Functions, Order: Order{Attr: OrderKeyCost}}); err != nil {
			t.Errorf("%s: scalar find: %v", tc.expr, err)
		}
	}
}

// TestFiniteCatalogAnswersUnchanged: the guard changes nothing for a
// catalog whose estimators are finite — every builtin evaluates at width
// 8 to exactly what the interpreter computes from its expression.
func TestFiniteCatalogAnswersUnchanged(t *testing.T) {
	db := openDB(t)
	cands, err := db.FindAll(Query{Width: 8, Order: Order{Attr: OrderKeyCost}})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("no candidates at width 8")
	}
	ests := builtinEstimators()
	for _, c := range cands {
		a := c.Impl.Attrs()
		a["width"] = 8
		want := [2]float64{c.Impl.Area, c.Impl.Delay}
		for i, attr := range EstimatorAttrs() {
			src, ok := ests[c.Impl.Name][attr]
			if !ok {
				continue
			}
			e, err := iif.ParseExpr(src)
			if err != nil {
				t.Fatal(err)
			}
			if want[i], err = evalAttr(e, a); err != nil {
				t.Fatal(err)
			}
		}
		if math.Float64bits(c.Area) != math.Float64bits(want[0]) || math.Float64bits(c.Delay) != math.Float64bits(want[1]) {
			t.Errorf("%s at width 8: area %g delay %g, want %g %g", c.Impl.Name, c.Area, c.Delay, want[0], want[1])
		}
	}
}

// TestGeneratorExpressionErrorOrder: with two bad estimator expressions
// the one reported is always area's — the paths walk EstimatorAttrs
// order, never a map's.
func TestGeneratorExpressionErrorOrder(t *testing.T) {
	db := openDB(t)
	g, err := db.GeneratorByName("gen_cnt")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		bad := g
		bad.Name = "gen_bad"
		bad.AreaExpr, bad.DelayExpr = "1 +", "2 *"
		err := db.RegisterGenerator(bad)
		if err == nil || !strings.Contains(err.Error(), `bad area estimator "1 +"`) {
			t.Fatalf("RegisterGenerator run %d: %v, want the area expression reported", i, err)
		}
		_, _, _, err = db.GeneratorCost(bad, map[string]int{"size": 4})
		if err == nil || !strings.Contains(err.Error(), `bad area estimator "1 +"`) {
			t.Fatalf("GeneratorCost run %d: %v, want the area expression reported", i, err)
		}
		// Both parse, both fail to evaluate: still area first.
		bad.AreaExpr, bad.DelayExpr = "nope_a", "nope_d"
		_, _, _, err = db.GeneratorCost(bad, map[string]int{"size": 4})
		if err == nil || !strings.Contains(err.Error(), "gen_bad: area estimator:") {
			t.Fatalf("GeneratorCost run %d: %v, want the area evaluation reported", i, err)
		}
	}
}

// TestExploreParsesEachExpressionOnce: a sweep of n points takes its two
// parsed expressions from the intern table — two programs, however many
// points, and the same two on the next sweep.
func TestExploreParsesEachExpressionOnce(t *testing.T) {
	seeded := openDB(t)
	// A second DB over the seeded store skips seeding, so its intern table
	// starts empty.
	db, err := Open(seeded.Store())
	if err != nil {
		t.Fatal(err)
	}
	if n := len(db.progs); n != 0 {
		t.Fatalf("intern table starts with %d program(s)", n)
	}
	pts, err := db.Explore("gen_cnt", 4, 64, 4, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 16 {
		t.Fatalf("swept %d points, want 16", len(pts))
	}
	if n := len(db.progs); n != 2 {
		t.Fatalf("a %d-point sweep interned %d program(s), want 2", len(pts), n)
	}
	g, err := db.GeneratorByName("gen_cnt")
	if err != nil {
		t.Fatal(err)
	}
	area, delay := db.progs[g.AreaExpr], db.progs[g.DelayExpr]
	if area == nil || delay == nil {
		t.Fatalf("interned %v, want the generator's two expressions", db.progs)
	}
	if _, err := db.Explore("gen_cnt", 8, 32, 8, nil, false); err != nil {
		t.Fatal(err)
	}
	if len(db.progs) != 2 || db.progs[g.AreaExpr] != area || db.progs[g.DelayExpr] != delay {
		t.Fatal("a second sweep re-interned its expressions")
	}
}

// TestEstimatorCacheInternsPrograms pins the memory shape of the
// estimator cache at benchmark scale: 100k implementations × 2 estimator
// rows over three distinct sources hold three programs, and every
// per-implementation entry is a pair of pointers to them — no syntax
// tree of its own.
func TestEstimatorCacheInternsPrograms(t *testing.T) {
	n := 100000
	if testing.Short() {
		n = 10000
	}
	store := relstore.New()
	for _, sc := range Schemas() {
		if err := store.CreateTable(sc); err != nil {
			t.Fatal(err)
		}
	}
	db, err := Open(store) // complete schema: nothing is seeded
	if err != nil {
		t.Fatal(err)
	}
	sources := [3]string{"area * width", "delay", "delay * width"}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("syn_%06d", i)
		for a, attr := range EstimatorAttrs() {
			src := sources[0]
			if a == 1 {
				src = sources[1+i%2]
			}
			if err := store.Insert(TableEstimators, relstore.Row{"impl": name, "attr": attr, "expr": src}); err != nil {
				t.Fatal(err)
			}
		}
	}
	r, err := db.read(needEsts, nil)
	if err != nil {
		t.Fatal(err)
	}
	es := r.ests()
	if len(db.progs) != 3 {
		t.Fatalf("intern table holds %d program(s), want 3", len(db.progs))
	}
	if len(es) != n {
		t.Fatalf("estimator cache covers %d implementation(s), want %d", len(es), n)
	}
	for impl, p := range es {
		if p.area != db.progs[sources[0]] || (p.delay != db.progs[sources[1]] && p.delay != db.progs[sources[2]]) {
			t.Fatalf("%s holds programs outside the intern table", impl)
		}
	}
	// Registering a known source adds no program; a new one adds one.
	// Both reach the cache as deltas, not rebuilds.
	if err := store.Insert(TableImplementations, implRow(Impl{Name: "syn_000000"})); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterEstimator("syn_000000", "delay", sources[2]); err != nil {
		t.Fatal(err)
	}
	if len(db.progs) != 3 {
		t.Fatalf("a known source grew the intern table to %d", len(db.progs))
	}
	if err := db.RegisterEstimator("syn_000000", "delay", "delay + 1"); err != nil {
		t.Fatal(err)
	}
	if len(db.progs) != 4 {
		t.Fatalf("a new source left the intern table at %d, want 4", len(db.progs))
	}
	r, err = db.read(needEsts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.ests()["syn_000000"].delay != db.progs["delay + 1"] || db.rebuilds[partEsts].Load() != 1 {
		t.Fatalf("registration did not reach the cache as a delta (%d builds)", db.rebuilds[partEsts].Load())
	}
	// The pinned snapshot kept the pair it had.
	if es["syn_000000"].delay != db.progs[sources[1]] {
		t.Fatal("a delta wrote through a pinned snapshot")
	}
}

// TestEstimatorsMatchTheRelation: Estimators(name), answered from the
// catalog's estimators part, equals a scan of the estimators relation
// after each step of a seeded stream of RegisterEstimator calls and
// direct Store() upserts and deletes, for registered implementations and
// for a name only direct rows carry.
func TestEstimatorsMatchTheRelation(t *testing.T) {
	db := openDB(t)
	rng := rand.New(rand.NewSource(52))
	impls := []string{"add_ripple", "cnt_up", "reg_d"}
	names := append(slices.Clone(impls), "ghost")
	srcs := []string{"area", "area * width", "delay + width / 4", "3"}
	for step := 0; step < 400; step++ {
		attr := EstimatorAttrs()[rng.Intn(2)]
		src := srcs[rng.Intn(len(srcs))]
		switch rng.Intn(3) {
		case 0:
			if err := db.RegisterEstimator(impls[rng.Intn(len(impls))], attr, src); err != nil {
				t.Fatal(err)
			}
		case 1:
			row := relstore.Row{"impl": names[rng.Intn(len(names))], "attr": attr, "expr": src}
			if err := db.Store().Upsert(TableEstimators, row); err != nil {
				t.Fatal(err)
			}
		case 2:
			p := relstore.And(relstore.Eq("impl", names[rng.Intn(len(names))]), relstore.Eq("attr", attr))
			if _, err := db.Store().Delete(TableEstimators, p); err != nil {
				t.Fatal(err)
			}
		}
		for _, name := range names {
			got, err := db.Estimators(name)
			if err != nil {
				t.Fatalf("step %d: Estimators(%s): %v", step, name, err)
			}
			rows, err := db.Store().Select(TableEstimators, relstore.Func(func(r relstore.Row) bool { return r["impl"] == name }))
			if err != nil {
				t.Fatal(err)
			}
			want := map[string]string{}
			for _, r := range rows {
				want[r["attr"].(string)] = r["expr"].(string)
			}
			if !maps.Equal(got, want) {
				t.Fatalf("step %d: Estimators(%s) = %v, the relation holds %v", step, name, got, want)
			}
		}
	}
}

// TestEstimatorsRelationDeclaresNoIndex: Estimators reads the catalog
// part, so a fresh catalog's estimators relation declares no secondary
// index for RegisterEstimator to maintain.
func TestEstimatorsRelationDeclaresNoIndex(t *testing.T) {
	sc, err := openDB(t).Store().SchemaOf(TableEstimators)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Indexes) != 0 {
		t.Errorf("the estimators relation declares %d index(es) %v, want 0", len(sc.Indexes), sc.Indexes)
	}
}

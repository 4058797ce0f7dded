package icdb_test

// One read, one version: a reader that reads several relations answers
// from one state of the store. The deterministic tests write between a
// reader's pin and its checks (DB.SetAfterPin) — first one relation,
// then another — and hold the answer to the full-scan reference taken
// before both writes or after both; the differential runs readers
// against a writer and holds every answer to the reference at some
// version between the read's start and its end.

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"icdb/internal/genus"
	"icdb/internal/icdb"
	"icdb/internal/relstore"
)

// writeAfterPin makes the next read of db run writes, once, between its
// pin and its checks.
func writeAfterPin(t *testing.T, db *icdb.DB, writes ...func() error) *atomic.Bool {
	t.Helper()
	var fired atomic.Bool
	db.SetAfterPin(func() {
		if !fired.CompareAndSwap(false, true) {
			return
		}
		for _, w := range writes {
			if err := w(); err != nil {
				t.Error(err)
			}
		}
	})
	t.Cleanup(func() { db.SetAfterPin(nil) })
	return &fired
}

// renamed is add_ripple's twin under another name: an ADD
// implementation covering every width add_ripple does.
func renamed(t *testing.T, db *icdb.DB, name string) icdb.Impl {
	t.Helper()
	im, err := db.ImplByName("add_ripple")
	if err != nil {
		t.Fatal(err)
	}
	im.Name, im.Source = name, strings.Replace(im.Source, "NAME: add_ripple;", "NAME: "+name+";", 1)
	return im
}

// oneOf fails unless got equals before or after, which must differ.
func oneOf(t *testing.T, what string, got, before, after any) {
	t.Helper()
	if reflect.DeepEqual(before, after) {
		t.Fatalf("%s: the writes did not change the reference answer %v", what, before)
	}
	if !reflect.DeepEqual(got, before) && !reflect.DeepEqual(got, after) {
		t.Fatalf("%s: answer from no single state of the store:\n got    %v\n before %v\n after  %v", what, got, before, after)
	}
}

// TestOneVersionFind: a width find pins the estimators and the
// implementations together. RegisterEstimator and then RegisterImpl
// between its pin and its checks must not yield the new implementation
// ranked with the old estimator.
func TestOneVersionFind(t *testing.T) {
	db := openTestDB(t)
	q := icdb.Query{Functions: []genus.Function{genus.FuncADD}, Width: 8, Order: icdb.Order{Attr: icdb.OrderKeyCost}}
	ref := func() []string {
		t.Helper()
		f, err := newFullScan(db)
		if err != nil {
			t.Fatal(err)
		}
		want, err := f.query(q)
		if err != nil {
			t.Fatal(err)
		}
		return cands(want)
	}
	if _, err := db.FindAll(q); err != nil { // warm every part
		t.Fatal(err)
	}
	before := ref()
	tear := renamed(t, db, "tear_y")
	fired := writeAfterPin(t, db,
		func() error { return db.RegisterEstimator("add_ripple", "area", "area + 1000") },
		func() error { return db.RegisterImpl(tear) })
	got, err := db.FindAll(q)
	if err != nil || !fired.Load() {
		t.Fatalf("find: %v (writes ran: %v)", err, fired.Load())
	}
	oneOf(t, "find at width 8", cands(got), before, ref())
}

// TestOneVersionEstimateImpl: an estimate pins the implementation, its
// estimators and the weights together. RegisterEstimator and then a
// re-registration of the implementation between its pin and its checks
// must not evaluate the new estimator over the old scalar attributes.
func TestOneVersionEstimateImpl(t *testing.T) {
	db := openTestDB(t)
	ref := func() [3]float64 {
		t.Helper()
		f, err := newFullScan(db)
		if err != nil {
			t.Fatal(err)
		}
		for _, im := range f.impls {
			if im.Name == "add_ripple" {
				a, err := f.attrs(&im, 8)
				if err != nil {
					t.Fatal(err)
				}
				return [3]float64{a["area"], a["delay"], a["area"]*f.wa + a["delay"]*f.wd}
			}
		}
		t.Fatal("add_ripple missing from the reference")
		return [3]float64{}
	}
	if _, _, _, err := db.EstimateImpl("add_ripple", 8); err != nil { // warm every part
		t.Fatal(err)
	}
	before := ref()
	tuned := renamed(t, db, "add_ripple")
	tuned.Area += 5
	fired := writeAfterPin(t, db,
		func() error { return db.RegisterEstimator("add_ripple", "area", "area + 1000") },
		func() error { return db.RegisterImpl(tuned) })
	area, delay, cost, err := db.EstimateImpl("add_ripple", 8)
	if err != nil || !fired.Load() {
		t.Fatalf("estimate: %v (writes ran: %v)", err, fired.Load())
	}
	oneOf(t, "estimate add_ripple at width 8", [3]float64{area, delay, cost}, before, ref())
}

// paretoRef is the frontier of q by brute force over the explorations
// relation, costed at the tool_params weights: what Pareto streams for a
// query without a scope, a width pin or dominated points.
func paretoRef(t *testing.T, db *icdb.DB, q icdb.ParetoQuery) []icdb.ParetoPoint {
	t.Helper()
	f, err := newFullScan(db)
	if err != nil {
		t.Fatal(err)
	}
	all, err := db.Explorations()
	if err != nil {
		t.Fatal(err)
	}
	var pts []icdb.Exploration
	for _, e := range all {
		a := icdb.Attrs{"width_min": float64(e.Width), "width_max": float64(e.Width), "width": float64(e.Width), "area": e.Area, "delay": e.Delay, "stages": 0}
		ok := true
		for _, c := range q.Constraints {
			if pass, err := c.Accept(a); err != nil || !pass {
				ok = err == nil && pass
			}
		}
		if ok {
			pts = append(pts, e)
		}
	}
	var out []icdb.ParetoPoint
	for _, p := range pts {
		dominated := false
		for _, o := range pts {
			if o.Area <= p.Area && o.Delay <= p.Delay && (o.Area < p.Area || o.Delay < p.Delay) {
				dominated = true
			}
		}
		if !dominated {
			out = append(out, icdb.ParetoPoint{Exploration: p, Cost: p.Area*f.wa + p.Delay*f.wd})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Area != b.Area {
			return a.Area < b.Area
		}
		if a.Delay != b.Delay {
			return a.Delay < b.Delay
		}
		if a.Generator != b.Generator {
			return a.Generator < b.Generator
		}
		return a.Bindings < b.Bindings
	})
	return out
}

// TestOneVersionPareto: a frontier query pins the weights and its scope
// together. SetToolParam and then RecordExploration between its pin and
// its checks must not cost the new point at the old weights — on the
// maintained-frontier path and on the filtered one alike.
func TestOneVersionPareto(t *testing.T) {
	db := openTestDB(t)
	if _, err := db.Explore("gen_cnt", 4, 16, 4, nil, false); err != nil {
		t.Fatal(err)
	}
	area, err := icdb.AttrCmp("area", icdb.CmpGE, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range []icdb.ParetoQuery{{}, {Constraints: []icdb.Constraint{area}}} {
		if _, err := db.ParetoFrontier(q); err != nil { // warm the weights and the scope
			t.Fatal(err)
		}
		before := paretoRef(t, db, q)
		point := icdb.Exploration{Generator: "tear_gen", Bindings: icdb.BindingsKey(map[string]int{"size": i + 1}),
			Component: genus.ComponentType("COUNTER"), Width: i + 1, Area: 0.5 / float64(i+1), Delay: 0.5}
		fired := writeAfterPin(t, db,
			func() error { return db.SetToolParam("icdb", "area_weight", float64(5+i)) },
			func() error { return db.RecordExploration(point) })
		got, err := db.ParetoFrontier(q)
		if err != nil || !fired.Load() {
			t.Fatalf("pareto %d: %v (writes ran: %v)", i, err, fired.Load())
		}
		db.SetAfterPin(nil)
		oneOf(t, "pareto", got, before, paretoRef(t, db, q))
	}
}

// TestOneVersionAnyVersionFind: one writer registers, re-registers and
// writes directly through Store() — implementations, estimators and
// tool parameters — recording the full-scan reference after every
// write, while two readers run ranked finds. Each answer must equal the
// reference at some version between the find's start and its end.
func TestOneVersionAnyVersionFind(t *testing.T) {
	const pool, writes = 24, 150
	db, err := newSynthDB(pool)
	if err != nil {
		t.Fatal(err)
	}
	if err := populateEstimators(db, pool); err != nil {
		t.Fatal(err)
	}
	queries := []icdb.Query{
		{Width: 8, Order: icdb.Order{Attr: icdb.OrderKeyCost}, Limit: 12},
		{Functions: []genus.Function{genus.FuncADD}, Width: 16, Order: icdb.Order{Attr: "delay", Desc: true}},
		{Order: icdb.Order{Attr: icdb.OrderKeyCost}, Limit: 8},
	}
	var mu sync.Mutex
	var versions [][][]string // version -> query -> answer
	record := func() {
		f, err := newFullScan(db)
		if err != nil {
			t.Error(err)
			return
		}
		v := make([][]string, len(queries))
		for i, q := range queries {
			want, err := f.query(q)
			if err != nil {
				t.Error(err)
			}
			v[i] = cands(want)
		}
		mu.Lock()
		versions = append(versions, v)
		mu.Unlock()
	}
	published := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(versions)
	}
	record()

	type read struct {
		q, lo, hi int
		got       []string
	}
	var reads []read
	var rmu sync.Mutex
	var done atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !done.Load() {
				qi := rng.Intn(len(queries))
				lo := published() - 1 // the state at the start is this version or the next
				got, err := db.FindAll(queries[qi])
				if err != nil {
					t.Error(err)
					return
				}
				hi := published() // at most one write is applied and not yet recorded
				rmu.Lock()
				reads = append(reads, read{qi, lo, hi, cands(got)})
				rmu.Unlock()
			}
		}(int64(r + 1))
	}

	store := db.Store()
	rng := rand.New(rand.NewSource(49))
	for step := 0; step < writes; step++ {
		name := nameOf(rng.Intn(pool))
		attr := icdb.EstimatorAttrs()[rng.Intn(2)]
		src := stampSources[rng.Intn(len(stampSources))]
		var err error
		switch rng.Intn(6) {
		case 0:
			err = db.RegisterEstimator(name, attr, src)
		case 1:
			im := implAt(rng.Intn(pool))
			im.Area = float64(1 + rng.Intn(40))
			err = db.RegisterImpl(im)
		case 2:
			err = db.SetToolParam("icdb", []string{"area_weight", "delay_weight"}[rng.Intn(2)], float64(rng.Intn(4)))
		case 3:
			err = store.Upsert(icdb.TableEstimators, relstore.Row{"impl": name, "attr": attr, "expr": src})
		case 4:
			im := implAt(rng.Intn(pool))
			im.Delay = float64(1 + rng.Intn(40))
			err = store.Upsert(icdb.TableImplementations, implRowOf(im))
		case 5:
			err = store.Upsert(icdb.TableToolParams, relstore.Row{"tool": "icdb", "param": "delay_weight", "value": float64(rng.Intn(4))})
		}
		if err != nil {
			t.Fatalf("write %d: %v", step, err)
		}
		record()
	}
	done.Store(true)
	wg.Wait()

	for _, r := range reads {
		ok := false
		for v := r.lo; v <= min(r.hi, len(versions)-1) && !ok; v++ {
			ok = reflect.DeepEqual(r.got, versions[v][r.q])
		}
		if !ok {
			t.Fatalf("find %d read between versions %d and %d answered %v, which no version in between holds", r.q, r.lo, r.hi, r.got)
		}
	}
	if len(reads) == 0 {
		t.Fatal("no concurrent find ran")
	}
	t.Logf("%d finds over %d versions each matched a version of their own window", len(reads), len(versions))
}

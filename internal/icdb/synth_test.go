package icdb_test

// Deterministic synthetic catalogs at benchmark scale (DB4HLS-style
// component databases reach 100k+ entries) and reference implementations
// of the pre-index full-scan read paths, which the tests below compare
// the planner/index engine against through the same public API.
//
// Implementation i is always the same implementation, with attributes
// derived from small fixed mixers, so runs are comparable across
// machines and commits.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"icdb/internal/genus"
	"icdb/internal/icdb"
	"icdb/internal/iif"
	"icdb/internal/relstore"
)

// srcTemplate is the IIF source every synthetic implementation carries: a
// minimal parseable single-stage network with the conventional "size"
// width parameter. Registration parses it, so catalog population also
// exercises the IIF front-end at scale.
const srcTemplate = `
NAME: %s;
PARAMETER: size;
VARIABLE: i;
INORDER: A[size], B[size];
OUTORDER: O[size];
{
  #for(i = 0; i < size; i++)
    O[i] = A[i] * B[i];
}
`

// nameOf returns the name of the i-th synthetic implementation.
func nameOf(i int) string { return fmt.Sprintf("gen_%06d", i) }

// implAt returns the i-th synthetic implementation. Component types
// rotate through the full GENUS catalog; function sets are growing
// prefixes of each type's function set; width ranges, stages, area, and
// delay are spread by fixed mixers so constraint predicates select
// non-trivial subsets.
func implAt(i int) icdb.Impl {
	cts := genus.AllComponentTypes()
	ct := cts[i%len(cts)]
	fns := genus.Functions(ct)
	name := nameOf(i)
	return icdb.Impl{
		Name:      name,
		Component: ct,
		Style:     "synthetic",
		Functions: fns[:1+i%len(fns)],
		WidthMin:  1 + i%4,
		WidthMax:  8 + i%120,
		Stages:    i % 4,
		Area:      float64(1 + (i*13)%97),
		Delay:     float64(1 + (i*7)%53),
		Params:    []string{"size"},
		Source:    fmt.Sprintf(srcTemplate, name),
	}
}

// populate registers n synthetic implementations into db through the
// validating RegisterImpl path (IIF parse included).
func populate(db *icdb.DB, n int) error {
	for i := 0; i < n; i++ {
		if err := db.RegisterImpl(implAt(i)); err != nil {
			return fmt.Errorf("synthetic impl %d: %w", i, err)
		}
	}
	return nil
}

// synthEstimators are the three distinct estimator sources the synthetic
// catalog (like the builtin library and bench/gen.go) draws from.
var synthEstimators = [3]string{"area * width", "delay", "delay * width"}

// populateEstimators registers an area and a delay estimator for each of
// the first n synthetic implementations: area always scales with width,
// delay is flat for even i and linear for odd i.
func populateEstimators(db *icdb.DB, n int) error {
	for i := 0; i < n; i++ {
		if err := db.RegisterEstimator(nameOf(i), "area", synthEstimators[0]); err != nil {
			return err
		}
		if err := db.RegisterEstimator(nameOf(i), "delay", synthEstimators[1+i%2]); err != nil {
			return err
		}
	}
	return nil
}

// newSynthDB opens a fresh in-memory database holding the builtin library
// plus n synthetic implementations.
func newSynthDB(n int) (*icdb.DB, error) {
	db, err := icdb.Open(relstore.New())
	if err != nil {
		return nil, err
	}
	if err := populate(db, n); err != nil {
		return nil, err
	}
	return db, nil
}

// fullScan is the pre-index query path, reproduced for any Query as the
// reference TestIndexedQueryMatchesFullScanReference holds the engine to:
// every implementation row decoded through Impls, estimator sources read
// through Estimators and evaluated by the interpreter (never through
// EstimateImpl, which records explorations), filtered per row and sorted
// per query. It loads the catalog once; the catalog must not change
// while it is in use.
type fullScan struct {
	impls  []icdb.Impl
	ests   map[string]map[string]iif.Expr // impl -> attr -> parsed estimator
	wa, wd float64                        // the database-default weights
}

func newFullScan(db *icdb.DB) (*fullScan, error) {
	impls, err := db.Impls()
	if err != nil {
		return nil, err
	}
	f := &fullScan{impls: impls, ests: map[string]map[string]iif.Expr{}, wa: 1, wd: 1}
	params, err := db.Store().Select(icdb.TableToolParams, relstore.Eq("tool", "icdb"))
	if err != nil {
		return nil, err
	}
	for _, r := range params {
		switch r["param"] {
		case "area_weight":
			f.wa = r["value"].(float64)
		case "delay_weight":
			f.wd = r["value"].(float64)
		}
	}
	for _, im := range impls {
		srcs, err := db.Estimators(im.Name)
		if err != nil {
			return nil, err
		}
		f.ests[im.Name] = map[string]iif.Expr{}
		for attr, src := range srcs {
			if f.ests[im.Name][attr], err = iif.ParseExpr(src); err != nil {
				return nil, err
			}
		}
	}
	return f, nil
}

// attrs is im's attribute environment at width (0 for none): the scalar
// attributes, or at a width point the estimators evaluated over them
// plus the width itself.
func (f *fullScan) attrs(im *icdb.Impl, width int) (icdb.Attrs, error) {
	a := im.Attrs()
	if width == 0 {
		return a, nil
	}
	a["width"] = float64(width)
	evaluated := map[string]float64{"area": im.Area, "delay": im.Delay}
	for attr, e := range f.ests[im.Name] {
		v, err := icdb.EvalAttr(e, a)
		if err != nil {
			return nil, fmt.Errorf("icdb: estimator %s(%s): %w", attr, im.Name, err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("icdb: estimator %s(%s) at width %d: result is not a finite number", attr, im.Name, width)
		}
		evaluated[attr] = v
	}
	a["area"], a["delay"] = evaluated["area"], evaluated["delay"]
	return a, nil
}

// query answers q by brute force: ranked answers best first (ties by
// name), streamed answers in catalog order.
func (f *fullScan) query(q icdb.Query) ([]icdb.Candidate, error) {
	wa, wd := f.wa, f.wd
	if q.AreaWeight != nil {
		wa = *q.AreaWeight
	}
	if q.DelayWeight != nil {
		wd = *q.DelayWeight
	}
	var out []icdb.Candidate
	keys := map[string]icdb.Attrs{} // name -> attributes plus cost
rows:
	for _, im := range f.impls {
		for _, fn := range q.Functions {
			if !slices.Contains(im.Functions, fn) {
				continue rows
			}
		}
		if q.Type != "" && im.Component != q.Type {
			continue
		}
		a, err := f.attrs(&im, q.Width)
		if err != nil {
			return nil, err
		}
		for _, c := range q.Constraints {
			ok, err := c.Accept(a)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue rows
			}
		}
		if q.Width != 0 && (im.WidthMin > q.Width || im.WidthMax < q.Width) {
			continue
		}
		cost := a["area"]*wa + a["delay"]*wd
		out = append(out, icdb.Candidate{Impl: im, Area: a["area"], Delay: a["delay"], Cost: cost})
		a[icdb.OrderKeyCost] = cost
		keys[im.Name] = a
	}
	if q.Order.Attr == "" && q.Limit <= 0 {
		return out, nil
	}
	key := q.Order.Attr
	if key == "" {
		key = icdb.OrderKeyCost
	}
	sort.SliceStable(out, func(i, j int) bool {
		vi, vj := keys[out[i].Impl.Name][key], keys[out[j].Impl.Name][key]
		if vi != vj {
			return vi < vj != q.Order.Desc
		}
		return out[i].Impl.Name < out[j].Impl.Name
	})
	if q.Limit > 0 && len(out) > q.Limit {
		out = out[:q.Limit]
	}
	return out, nil
}

// fullScanImplRow reproduces the pre-index lookup path: a predicate scan
// of the implementations relation for one name (decoding the row is
// negligible next to the scan, so the reference stops at the raw row).
func fullScanImplRow(db *icdb.DB, name string) (relstore.Row, error) {
	rows, err := db.Store().Select(icdb.TableImplementations,
		relstore.Func(func(r relstore.Row) bool { return r["name"] == name }))
	switch {
	case err != nil:
		return nil, err
	case len(rows) != 1:
		return nil, fmt.Errorf("full scan: %d implementations named %q, want 1", len(rows), name)
	}
	return rows[0], nil
}

// TestIndexedQueryMatchesFullScanReference cross-validates the engine
// against the full-scan reference over the whole query shape, on a
// synthetic catalog with estimators and a non-default tool weight: a
// seeded matrix of {0, 1, 2 functions} × {type, none} × {no constraint,
// AttrCmp, ForWidth, Where} × {no width, width W} × {no order, each key
// ascending and descending} × {no limit, limit k} × {default, overridden
// weights}. Ranked answers must be identical, ties and estimates
// included; streamed answers must be the same multiset.
func TestIndexedQueryMatchesFullScanReference(t *testing.T) {
	db, err := newSynthDB(300)
	if err != nil {
		t.Fatal(err)
	}
	if err := populateEstimators(db, 300); err != nil {
		t.Fatal(err)
	}
	if err := db.SetToolParam("icdb", "delay_weight", 3); err != nil {
		t.Fatal(err)
	}
	ref, err := newFullScan(db)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	pick := func(min int) icdb.Impl {
		for {
			if im := ref.impls[rng.Intn(len(ref.impls))]; len(im.Functions) >= min {
				return im
			}
		}
	}
	ops := []icdb.CmpOp{icdb.CmpLE, icdb.CmpLT, icdb.CmpGE, icdb.CmpGT, icdb.CmpEQ, icdb.CmpNE}
	orders := []icdb.Order{{}}
	for _, k := range icdb.OrderKeys() {
		orders = append(orders, icdb.Order{Attr: k}, icdb.Order{Attr: k, Desc: true})
	}
	ranked, streamed, rows := 0, 0, 0
	for nFns := 0; nFns <= 2; nFns++ {
		for _, typed := range []bool{false, true} {
			for cons := 0; cons < 4; cons++ {
				for _, withWidth := range []bool{false, true} {
					for _, order := range orders {
						for _, limited := range []bool{false, true} {
							for _, weighted := range []bool{false, true} {
								var q icdb.Query
								seed := pick(nFns)
								q.Functions = seed.Functions[:nFns]
								if typed {
									q.Type = seed.Component
								}
								if withWidth {
									q.Width = 1 + rng.Intn(128)
								}
								// Thresholds come from a candidate's own attributes, so
								// comparisons land on equalities and split the catalog.
								probe := pick(0)
								pa, err := ref.attrs(&probe, q.Width)
								if err != nil {
									t.Fatal(err)
								}
								var c icdb.Constraint
								switch cons {
								case 1:
									attr := icdb.ConstraintAttrs()[rng.Intn(5)]
									c, err = icdb.AttrCmp(attr, ops[rng.Intn(len(ops))], pa[attr])
								case 2:
									c = icdb.ForWidth(1 + rng.Intn(128))
								case 3:
									src := fmt.Sprintf("area + delay < %d && stages >= %d", int(pa["area"]+pa["delay"]), rng.Intn(3))
									if withWidth {
										src = fmt.Sprintf("width_max - width >= %d || area * 2 < %d", rng.Intn(64), int(pa["area"]))
									}
									c, err = icdb.Where(src)
								}
								if err != nil {
									t.Fatal(err)
								}
								if cons > 0 {
									q.Constraints = []icdb.Constraint{c}
								}
								q.Order = order
								if limited {
									q.Limit = 1 + rng.Intn(15)
								}
								if weighted {
									wa := float64(rng.Intn(4)) / 2
									q.AreaWeight = &wa
									if rng.Intn(2) == 0 {
										wd := float64(rng.Intn(4))
										q.DelayWeight = &wd
									}
								}
								want, err := ref.query(q)
								if err != nil {
									t.Fatal(err)
								}
								got, err := db.FindAll(q)
								if err != nil {
									t.Fatalf("%+v: %v", q, err)
								}
								if q.Order.Attr == "" && q.Limit == 0 {
									streamed++
									byName := func(cs []icdb.Candidate) {
										sort.Slice(cs, func(i, j int) bool { return cs[i].Impl.Name < cs[j].Impl.Name })
									}
									byName(got)
									byName(want)
								} else {
									ranked++
								}
								rows += len(got)
								if !reflect.DeepEqual(got, want) {
									t.Fatalf("%+v (constraint %v):\n engine   %v\n full scan %v", q, c, cands(got), cands(want))
								}
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d ranked and %d streamed queries, %d candidates, agree with the full scan", ranked, streamed, rows)
}

// cands renders candidates as name/area/delay/cost, for diagnostics.
func cands(cs []icdb.Candidate) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = fmt.Sprintf("%s/%g/%g/%g", c.Impl.Name, c.Area, c.Delay, c.Cost)
	}
	return out
}

// TestSyntheticCatalogDeterminism: implementation i is identical across calls, and the
// reference lookup finds it.
func TestSyntheticCatalogDeterminism(t *testing.T) {
	a, b := implAt(17), implAt(17)
	if a.Name != b.Name || a.Area != b.Area || a.Delay != b.Delay || len(a.Functions) != len(b.Functions) {
		t.Fatalf("implAt not deterministic: %+v vs %+v", a, b)
	}
	db, err := newSynthDB(50)
	if err != nil {
		t.Fatal(err)
	}
	row, err := fullScanImplRow(db, nameOf(17))
	if err != nil {
		t.Fatal(err)
	}
	if row["component"] != string(a.Component) {
		t.Errorf("row component = %v, want %v", row["component"], a.Component)
	}
	im, err := db.ImplByName(nameOf(17))
	if err != nil || im.Area != a.Area {
		t.Errorf("ImplByName = %+v (%v)", im, err)
	}
}

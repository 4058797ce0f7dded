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
	"sort"
	"testing"

	"icdb/internal/genus"
	"icdb/internal/icdb"
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

// fullScanQueryByFunction reproduces the pre-index query path exactly:
// select and decode every implementation row, filter by function
// membership and constraints per row, then sort the survivors. It is the
// reference TestIndexedQueryMatchesFullScanReference holds the indexed
// engine to.
func fullScanQueryByFunction(db *icdb.DB, fn genus.Function, cs ...icdb.Constraint) ([]icdb.Candidate, error) {
	impls, err := db.Impls()
	if err != nil {
		return nil, err
	}
	wa, wd := 1.0, 1.0
	if v, ok := db.ToolParam("icdb", "area_weight"); ok {
		wa = v
	}
	if v, ok := db.ToolParam("icdb", "delay_weight"); ok {
		wd = v
	}
	var out []icdb.Candidate
	for _, im := range impls {
		has := make(map[genus.Function]bool, len(im.Functions))
		for _, f := range im.Functions {
			has[f] = true
		}
		if !has[fn] {
			continue
		}
		ok := true
		for _, c := range cs {
			pass, err := c.Accept(im.Attrs())
			if err != nil {
				return nil, err
			}
			if !pass {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		out = append(out, icdb.Candidate{Impl: im, Area: im.Area, Delay: im.Delay, Cost: im.Area*wa + im.Delay*wd})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Cost != out[j].Cost {
			return out[i].Cost < out[j].Cost
		}
		return out[i].Impl.Name < out[j].Impl.Name
	})
	return out, nil
}

// fullScanImplRow reproduces the pre-index lookup path: a predicate scan
// of the implementations relation for one name (decoding the row is
// negligible next to the scan, so the reference stops at the raw row).
func fullScanImplRow(db *icdb.DB, name string) (relstore.Row, error) {
	return db.Store().SelectOne(icdb.TableImplementations,
		relstore.Func(func(r relstore.Row) bool { return r["name"] == name }))
}

// TestIndexedQueryMatchesFullScanReference cross-validates the two query
// engines: on a synthetic catalog, the indexed path must return exactly
// the candidates (and order) of the pre-index full-scan reference, for a
// spread of functions and constraints.
func TestIndexedQueryMatchesFullScanReference(t *testing.T) {
	db, err := newSynthDB(300)
	if err != nil {
		t.Fatal(err)
	}
	constraints := [][]icdb.Constraint{
		nil,
		{icdb.MaxArea(40)},
		{icdb.ForWidth(16)},
		{icdb.MustWhere("area + delay < 60 && stages >= 1")},
	}
	for _, fn := range []genus.Function{genus.FuncADD, genus.FuncSTORAGE, genus.FuncAND, genus.FuncMuxSCL} {
		for _, cs := range constraints {
			want, err := fullScanQueryByFunction(db, fn, cs...)
			if err != nil {
				t.Fatal(err)
			}
			got, err := db.QueryByFunction(fn, cs...)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s %v: indexed %d candidates, full scan %d", fn, cs, len(got), len(want))
			}
			for i := range got {
				if got[i].Impl.Name != want[i].Impl.Name || got[i].Cost != want[i].Cost {
					t.Fatalf("%s %v: [%d] indexed %s/%g, full scan %s/%g",
						fn, cs, i, got[i].Impl.Name, got[i].Cost, want[i].Impl.Name, want[i].Cost)
				}
			}
		}
	}
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

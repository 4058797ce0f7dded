package icdb_test

// Streaming query tests: an unranked Find must yield exactly the
// candidate set its ranked counterpart returns (same impls, same costs),
// honor constraints and early stop, and hand out Impls that Clone into
// independent copies.

import (
	"path/filepath"
	"sort"
	"testing"

	"icdb/internal/genus"
	"icdb/internal/icdb"
	"icdb/internal/relstore"
)

func openTestDB(t *testing.T) *icdb.DB {
	t.Helper()
	db, err := icdb.Open(relstore.New())
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// collectScan drains the streamed (unranked) query q into a cost-sorted
// slice, cloning each yielded Impl as the visitor contract requires.
func collectScan(t *testing.T, db *icdb.DB, q icdb.Query) []icdb.Candidate {
	t.Helper()
	out, err := db.FindAll(q)
	if err != nil {
		t.Fatal(err)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Cost != out[j].Cost {
			return out[i].Cost < out[j].Cost
		}
		return out[i].Impl.Name < out[j].Impl.Name
	})
	return out
}

// ranked is q ranked by cost, unbounded: the materialized counterpart
// of the streamed q.
func ranked(t *testing.T, db *icdb.DB, q icdb.Query) []icdb.Candidate {
	t.Helper()
	q.Order = icdb.Order{Attr: icdb.OrderKeyCost}
	out, err := db.FindAll(q)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func assertSameCandidates(t *testing.T, got, want []icdb.Candidate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("streamed %d candidates, materialized %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Impl.Name != want[i].Impl.Name || got[i].Cost != want[i].Cost {
			t.Errorf("candidate %d = %s/%g, want %s/%g",
				i, got[i].Impl.Name, got[i].Cost, want[i].Impl.Name, want[i].Cost)
		}
	}
}

func TestQueryByFunctionScanMatchesMaterialized(t *testing.T) {
	db := openTestDB(t)
	for _, cs := range [][]icdb.Constraint{
		nil,
		{icdb.ForWidth(8)},
		{attrCmp(t, "area", icdb.CmpLE, 6), attrCmp(t, "delay", icdb.CmpLE, 50)},
		{where(t, "width_min <= 4 && area <= 10")},
	} {
		q := icdb.Query{Functions: []genus.Function{genus.FuncADD}, Constraints: cs}
		assertSameCandidates(t, collectScan(t, db, q), ranked(t, db, q))
	}
}

func TestQueryByFunctionsScanIntersection(t *testing.T) {
	db := openTestDB(t)
	q := icdb.Query{Functions: []genus.Function{genus.FuncCOUNTER, genus.FuncSTORE}}
	got := collectScan(t, db, q)
	assertSameCandidates(t, got, ranked(t, db, q))
	if len(got) == 0 {
		t.Fatal("COUNT+STORE intersection is empty; test is vacuous")
	}
	// Streaming an unknown function is the same error as ranking one.
	bad := icdb.Query{Functions: []genus.Function{genus.FuncCOUNTER, "FROB"}}
	if err := db.Find(bad, func(icdb.Candidate) bool { return true }); err == nil {
		t.Error("unknown function accepted")
	}
}

func TestQueryByComponentScanMatchesMaterialized(t *testing.T) {
	db := openTestDB(t)
	q := icdb.Query{Type: genus.CompCounter}
	assertSameCandidates(t, collectScan(t, db, q), ranked(t, db, q))
	if err := db.Find(icdb.Query{Type: "NoSuchComponent"}, func(icdb.Candidate) bool { return true }); err == nil {
		t.Error("unknown component type accepted")
	}
}

func TestQueryScanWalksWholeCatalog(t *testing.T) {
	db := openTestDB(t)
	impls, err := db.Impls()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	if err := db.Find(icdb.Query{}, func(c icdb.Candidate) bool {
		seen[c.Impl.Name] = true
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(impls) {
		t.Fatalf("Find visited %d impls, catalog has %d", len(seen), len(impls))
	}
	for _, im := range impls {
		if !seen[im.Name] {
			t.Errorf("Find missed %s", im.Name)
		}
	}
	// Constrained walk matches a manual filter of the materialized list.
	n := 0
	q := icdb.Query{Constraints: []icdb.Constraint{attrCmp(t, "area", icdb.CmpLE, 4)}}
	if err := db.Find(q, func(c icdb.Candidate) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	wantN := 0
	for _, im := range impls {
		if im.Area <= 4 {
			wantN++
		}
	}
	if n != wantN {
		t.Errorf("constrained Find yielded %d, want %d", n, wantN)
	}
}

func TestScanEarlyStop(t *testing.T) {
	db := openTestDB(t)
	n := 0
	add := icdb.Query{Functions: []genus.Function{genus.FuncADD}}
	if err := db.Find(add, func(c icdb.Candidate) bool {
		n++
		return false
	}); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("visitor called %d times after returning false, want 1", n)
	}
	// The DB is fully usable afterwards (the index lock was released).
	ranked(t, db, add)
}

func TestScanConstraintErrorPropagates(t *testing.T) {
	db := openTestDB(t)
	q := icdb.Query{Functions: []genus.Function{genus.FuncADD}, Constraints: []icdb.Constraint{where(t, "no_such_attr > 1")}}
	called := false
	err := db.Find(q, func(c icdb.Candidate) bool {
		called = true
		return true
	})
	if err == nil {
		t.Fatal("constraint referencing an unknown attribute: want error")
	}
	if called {
		t.Error("visitor ran despite the constraint error")
	}
	// The ranked path reports the same failure.
	q.Order = icdb.Order{Attr: icdb.OrderKeyCost}
	if _, err := db.FindAll(q); err == nil {
		t.Error("materialized query swallowed the constraint error")
	}
}

func TestScanCloneIndependence(t *testing.T) {
	db := openTestDB(t)
	var kept icdb.Impl
	if err := db.Find(icdb.Query{Functions: []genus.Function{genus.FuncADD}}, func(c icdb.Candidate) bool {
		kept = c.Impl.Clone()
		return false
	}); err != nil {
		t.Fatal(err)
	}
	if kept.Name == "" {
		t.Fatal("no candidate yielded")
	}
	orig, err := db.ImplByName(kept.Name)
	if err != nil {
		t.Fatal(err)
	}
	// Mutating the clone's slices must not reach the cache.
	if len(kept.Functions) == 0 {
		t.Fatal("cloned impl has no functions")
	}
	kept.Functions[0] = "TAMPERED"
	again, err := db.ImplByName(kept.Name)
	if err != nil {
		t.Fatal(err)
	}
	if again.Functions[0] != orig.Functions[0] || again.Functions[0] == "TAMPERED" {
		t.Error("mutating a cloned impl corrupted the query cache")
	}
}

// TestScanSeesRegisteredImpl: the streaming path reads the same live
// posting maps RegisterImpl maintains.
func TestScanSeesRegisteredImpl(t *testing.T) {
	db := openTestDB(t)
	im := icdb.Impl{
		Name:      "stream_probe",
		Component: genus.CompCounter,
		Functions: []genus.Function{genus.FuncCOUNTER},
		WidthMin:  1,
		WidthMax:  64,
		Area:      0.001,
		Delay:     0.001,
		Params:    []string{"size"},
		Source: `
NAME: stream_probe;
PARAMETER: size;
INORDER: A[size];
OUTORDER: O[size];
{
  O[0] = A[0];
}
`,
	}
	if err := db.RegisterImpl(im); err != nil {
		t.Fatal(err)
	}
	found := false
	if err := db.Find(icdb.Query{Functions: []genus.Function{genus.FuncCOUNTER}}, func(c icdb.Candidate) bool {
		if c.Impl.Name == "stream_probe" {
			found = true
			return false
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Error("freshly registered impl invisible to the streaming path")
	}
}

// TestDBSnapshotRoundTrip: a full ICDB catalog survives the binary
// snapshot path end to end — Open over the reloaded store serves the
// same ranked queries and point lookups.
func TestDBSnapshotRoundTrip(t *testing.T) {
	db := openTestDB(t)
	if err := db.SetToolParam("icdb", "area_weight", 3); err != nil {
		t.Fatal(err)
	}
	q := icdb.Query{Functions: []genus.Function{genus.FuncADD}, Constraints: []icdb.Constraint{icdb.ForWidth(8)}}
	want := ranked(t, db, q)
	if len(want) == 0 {
		t.Fatal("seed query: no candidates")
	}

	path := filepath.Join(t.TempDir(), "icdb.snap")
	if err := db.Store().SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	store, err := relstore.OpenSnapshot(path, relstore.SnapshotOptions{})
	if err != nil {
		t.Fatal(err)
	}
	db2, err := icdb.Open(store)
	if err != nil {
		t.Fatal(err)
	}
	assertSameCandidates(t, ranked(t, db2, q), want)
	if wa, _, err := db2.RankWeights(); err != nil || wa != 3 {
		t.Errorf("area weight after snapshot reload = %v, %v", wa, err)
	}
}

// where is icdb.Where for the tests' static expressions.
func where(t testing.TB, expr string) icdb.Constraint {
	t.Helper()
	c, err := icdb.Where(expr)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// attrCmp is icdb.AttrCmp for the tests' static comparisons.
func attrCmp(t testing.TB, attr string, op icdb.CmpOp, v float64) icdb.Constraint {
	t.Helper()
	c, err := icdb.AttrCmp(attr, op, v)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

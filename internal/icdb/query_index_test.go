package icdb

import (
	"fmt"
	"testing"

	"icdb/internal/genus"
	"icdb/internal/relstore"
)

// regCounter registers a synthetic counter implementation with the given
// function subset and cost.
func regCounter(t *testing.T, db *DB, name string, fns []genus.Function, area, delay float64) {
	t.Helper()
	src := fmt.Sprintf("NAME: %s; PARAMETER: size; INORDER: d, clk; OUTORDER: q; { q = d @ (~r clk); }", name)
	if err := db.RegisterImpl(Impl{
		Name:      name,
		Component: genus.CompCounter,
		Style:     "test",
		Functions: fns,
		WidthMin:  1, WidthMax: 32, Stages: 1,
		Area: area, Delay: delay,
		Params: []string{"size"},
		Source: src,
	}); err != nil {
		t.Fatal(err)
	}
}

// TestInvertedIndexFollowsReRegistration: re-registering an
// implementation with a different function set must move it between
// posting lists — the old postings may not serve it any more.
func TestInvertedIndexFollowsReRegistration(t *testing.T) {
	db := openDB(t)
	regCounter(t, db, "updown", []genus.Function{genus.FuncINC, genus.FuncDEC}, 5, 5)
	cands, err := db.FindAll(byCost(genus.FuncDEC))
	if err != nil || len(cands) != 1 || cands[0].Impl.Name != "updown" {
		t.Fatalf("DEC query = %v (%v), want [updown]", names(cands), err)
	}
	// Drop DEC from the function set.
	regCounter(t, db, "updown", []genus.Function{genus.FuncINC}, 5, 5)
	cands, err = db.FindAll(byCost(genus.FuncDEC))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cands {
		if c.Impl.Name == "updown" {
			t.Error("updown still answers DEC after re-registration dropped it")
		}
	}
	// It still answers INC, once, with no duplicate postings.
	n := 0
	cands, _ = db.FindAll(byCost(genus.FuncINC))
	for _, c := range cands {
		if c.Impl.Name == "updown" {
			n++
		}
	}
	if n != 1 {
		t.Errorf("updown appears %d times in INC postings, want 1", n)
	}
}

// TestInvalidateCachesSeesDirectStoreWrites: a row written behind the
// DB's back — inserted, updated, deleted directly through Store() — is
// seen by the very next query, with no InvalidateCaches: the indexes'
// stamp falls behind the relation's generation and the query rebuilds.
func TestInvalidateCachesSeesDirectStoreWrites(t *testing.T) {
	db := openDB(t)
	// Warm the indexes.
	if _, err := db.FindAll(byCost(genus.FuncADD)); err != nil {
		t.Fatal(err)
	}
	rogue := Impl{
		Name:      "rogue_add",
		Component: genus.CompAdderSubtractor,
		Functions: []genus.Function{genus.FuncADD},
		WidthMin:  1, WidthMax: 8, Stages: 0,
		Area: 0.5, Delay: 0.5,
		Params: []string{"size"},
		Source: "NAME: rogue_add; PARAMETER: size; INORDER: a; OUTORDER: s; { s = a; }",
	}
	// rogueArea is rogue_add's area in the cost-ranked ADD answer, or -1
	// when it is absent.
	rogueArea := func() float64 {
		t.Helper()
		cands, err := db.FindAll(byCost(genus.FuncADD))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cands {
			if c.Impl.Name == "rogue_add" {
				return c.Area
			}
		}
		return -1
	}
	if err := db.Store().Upsert(TableImplementations, implRow(rogue)); err != nil {
		t.Fatal(err)
	}
	if a := rogueArea(); a != 0.5 {
		t.Fatalf("after a direct upsert rogue_add has area %g, want 0.5", a)
	}
	rogue.Area = 7
	if err := db.Store().Upsert(TableImplementations, implRow(rogue)); err != nil {
		t.Fatal(err)
	}
	if a := rogueArea(); a != 7 {
		t.Fatalf("after a direct rewrite rogue_add has area %g, want 7", a)
	}
	if im, err := db.ImplByName("rogue_add"); err != nil || im.Area != 7 {
		t.Fatalf("ImplByName after a direct rewrite = %+v, %v", im, err)
	}
	if _, err := db.Store().Delete(TableImplementations, relstore.Eq("name", "rogue_add")); err != nil {
		t.Fatal(err)
	}
	if a := rogueArea(); a != -1 {
		t.Fatalf("after a direct delete rogue_add still answers, area %g", a)
	}
	if _, err := db.ImplByName("rogue_add"); err == nil {
		t.Fatal("ImplByName still finds rogue_add after a direct delete")
	}
}

// TestQueryTopK: the heap-bounded query returns exactly the k-cheapest
// prefix of the unbounded result, in the same order.
func TestQueryTopK(t *testing.T) {
	db := openDB(t)
	for i := 0; i < 20; i++ {
		regCounter(t, db, fmt.Sprintf("tk_%02d", i),
			[]genus.Function{genus.FuncINC, genus.FuncCOUNTER},
			float64((i*7)%13), float64((i*3)%11))
	}
	full, err := db.FindAll(byCost(genus.FuncINC))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 3, 7, len(full), len(full) + 5} {
		q := byCost(genus.FuncINC)
		q.Limit = k
		top, err := db.FindAll(q)
		if err != nil {
			t.Fatal(err)
		}
		want := k
		if want > len(full) {
			want = len(full)
		}
		if len(top) != want {
			t.Fatalf("TopK(%d) returned %d candidates, want %d", k, len(top), want)
		}
		for i := range top {
			if top[i].Impl.Name != full[i].Impl.Name || top[i].Cost != full[i].Cost {
				t.Fatalf("TopK(%d)[%d] = %s/%g, full[%d] = %s/%g",
					k, i, top[i].Impl.Name, top[i].Cost, i, full[i].Impl.Name, full[i].Cost)
			}
		}
	}
	// No Limit is unbounded.
	all, err := db.FindAll(byCost(genus.FuncINC))
	if err != nil || len(all) != len(full) {
		t.Errorf("TopK(0) = %d candidates (%v), want %d", len(all), err, len(full))
	}
	// Constraints apply before the heap.
	q := byCost(genus.FuncINC, mustWhere(t, "area >= 5"))
	q.Limit = 3
	top, err := db.FindAll(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range top {
		if c.Impl.Area < 5 {
			t.Errorf("TopK ignored constraint: %s area %g", c.Impl.Name, c.Impl.Area)
		}
	}
	// Component-scoped TopK agrees with the unbounded component query.
	fullC, err := db.FindAll(Query{Type: genus.CompCounter, Order: Order{Attr: OrderKeyCost}})
	if err != nil {
		t.Fatal(err)
	}
	topC, err := db.FindAll(Query{Type: genus.CompCounter, Limit: 2})
	if err != nil || len(topC) != 2 {
		t.Fatalf("component TopK = %v (%v)", names(topC), err)
	}
	for i := range topC {
		if topC[i].Impl.Name != fullC[i].Impl.Name {
			t.Errorf("component TopK[%d] = %s, want %s", i, topC[i].Impl.Name, fullC[i].Impl.Name)
		}
	}
}

// TestZeroConstraintAcceptsEverything: the zero Constraint{} must be
// inert in a query, not a nil-function panic.
func TestZeroConstraintAcceptsEverything(t *testing.T) {
	db := openDB(t)
	plain, err := db.FindAll(byCost(genus.FuncSTORAGE))
	if err != nil {
		t.Fatal(err)
	}
	withZero, err := db.FindAll(byCost(genus.FuncSTORAGE, Constraint{}))
	if err != nil {
		t.Fatal(err)
	}
	if len(withZero) != len(plain) {
		t.Errorf("zero constraint filtered: %d vs %d candidates", len(withZero), len(plain))
	}
}

// TestQueryResultsAreCallerOwned: mutating a ranked answer retained the
// way Find's contract asks (Impl.Clone, as FindAll does), or one
// ImplByName returned, must not corrupt the shared decoded cache.
func TestQueryResultsAreCallerOwned(t *testing.T) {
	db := openDB(t)
	var cands []Candidate
	err := db.Find(byCost(genus.FuncSTORAGE), func(c Candidate) bool {
		c.Impl = c.Impl.Clone()
		cands = append(cands, c)
		return true
	})
	if err != nil || len(cands) == 0 {
		t.Fatal(err)
	}
	cands[0].Impl.Functions[0] = genus.Function("CLOBBERED")
	again, err := db.FindAll(byCost(genus.FuncSTORAGE))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range again {
		for _, f := range c.Impl.Functions {
			if f == "CLOBBERED" {
				t.Fatal("candidate mutation leaked into the implementation cache")
			}
		}
	}
	im, err := db.ImplByName(cands[0].Impl.Name)
	if err != nil {
		t.Fatal(err)
	}
	im.Params[0] = "clobbered"
	im2, err := db.ImplByName(cands[0].Impl.Name)
	if err != nil || im2.Params[0] == "clobbered" {
		t.Errorf("ImplByName shares cache slices (params = %v, err %v)", im2.Params, err)
	}
}

// TestImplByNameIsPointLookup: the implementations table must carry a
// primary key serving ImplByName without a scan (asserted structurally:
// Get succeeds, and a huge catalog answers immediately is covered by the
// benchmarks).
func TestImplByNameIsPointLookup(t *testing.T) {
	db := openDB(t)
	if _, err := db.Store().Get(TableImplementations, "reg_d"); err != nil {
		t.Fatalf("implementations Get fast path unavailable: %v", err)
	}
	im, err := db.ImplByName("reg_d")
	if err != nil || im.Name != "reg_d" {
		t.Fatalf("ImplByName = %+v, %v", im, err)
	}
}

// TestOpenAfterLoadServesIndexedQueries mirrors the persistence test but
// asserts the lazily built indexes work over a loaded store.
func TestOpenAfterLoadServesIndexedQueries(t *testing.T) {
	db := openDB(t)
	regCounter(t, db, "persisted_cnt", []genus.Function{genus.FuncINC}, 1, 1)
	path := t.TempDir() + "/icdb.snap"
	if err := db.Store().SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	store, err := relstore.OpenSnapshot(path, relstore.SnapshotOptions{})
	if err != nil {
		t.Fatal(err)
	}
	db2, err := Open(store)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := db2.FindAll(byCost(genus.FuncINC))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range cands {
		found = found || c.Impl.Name == "persisted_cnt"
	}
	if !found {
		t.Errorf("persisted_cnt missing from reloaded query: %v", names(cands))
	}
}

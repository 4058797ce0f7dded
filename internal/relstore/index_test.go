package relstore

import (
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"testing"
)

// indexedStore declares the implementations table with a secondary index
// on (component) and one on (component, size).
func indexedStore(t *testing.T) *Store {
	t.Helper()
	sc := implSchema()
	sc.Indexes = []Index{{Columns: []string{"component"}}, {Columns: []string{"component", "size"}}}
	s := New()
	if err := s.CreateTable(sc); err != nil {
		t.Fatal(err)
	}
	return s
}

func implRowN(i int, component string) Row {
	return Row{
		"name":          fmt.Sprintf("impl%03d", i),
		"component":     component,
		"size":          i % 4,
		"area":          float64(i),
		"parameterized": i%2 == 0,
	}
}

// checkIndexConsistency verifies every secondary-index invariant against
// a ground-truth full scan of the table.
func checkIndexConsistency(t *testing.T, s *Store, tableName string) {
	t.Helper()
	s.mu.RLock()
	defer s.mu.RUnlock()
	d := s.tableMap()[tableName].data
	if len(d.ids) != len(d.rows) {
		t.Fatalf("ids slice has %d entries, rows map %d", len(d.ids), len(d.rows))
	}
	for i, id := range d.ids {
		if i > 0 && d.ids[i-1] >= id {
			t.Fatalf("ids not strictly ascending at %d: %v", i, d.ids)
		}
		if _, ok := d.rows[id]; !ok {
			t.Fatalf("ids holds dead rowid %d", id)
		}
	}
	for _, ix := range d.indexes {
		seen := 0
		for k, post := range ix.postings {
			if len(post) == 0 {
				t.Fatalf("index %v retains empty posting list %q", ix.cols, k)
			}
			for i, id := range post {
				if i > 0 && post[i-1] >= id {
					t.Fatalf("index %v posting %q not ascending: %v", ix.cols, k, post)
				}
				r, ok := d.rows[id]
				if !ok {
					t.Fatalf("index %v posting %q holds dead rowid %d", ix.cols, k, id)
				}
				if got := joinRow(ix.cols, r); got != k {
					t.Fatalf("index %v: rowid %d filed under %q but row keys to %q", ix.cols, id, k, got)
				}
				seen++
			}
		}
		if seen != len(d.rows) {
			t.Fatalf("index %v covers %d rows, table has %d", ix.cols, seen, len(d.rows))
		}
	}
}

func TestSecondaryIndexConsistencyAcrossMutations(t *testing.T) {
	s := indexedStore(t)
	for i := 0; i < 20; i++ {
		comp := "Counter"
		if i%3 == 0 {
			comp = "Register"
		}
		if err := s.Insert("implementations", implRowN(i, comp)); err != nil {
			t.Fatal(err)
		}
	}
	checkIndexConsistency(t, s, "implementations")

	// Upsert moves a row between posting lists without changing its rowid.
	moved := implRowN(3, "Adder")
	if err := s.Upsert("implementations", moved); err != nil {
		t.Fatal(err)
	}
	checkIndexConsistency(t, s, "implementations")
	rows, err := s.Select("implementations", Eq("component", "Adder"))
	if err != nil || len(rows) != 1 || rows[0]["name"] != "impl003" {
		t.Fatalf("after upsert: %v %v", rows, err)
	}

	// Upserts rewrite the indexed columns of every Register row.
	regs, err := s.Select("implementations", Eq("component", "Register"))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range regs {
		r["component"] = "Memory"
		if err := s.Upsert("implementations", r); err != nil {
			t.Fatal(err)
		}
	}
	checkIndexConsistency(t, s, "implementations")
	if n, _ := s.Count("implementations", Eq("component", "Register")); n != 0 {
		t.Errorf("stale Register posting visible: count %d", n)
	}

	// Delete through the planner's index path.
	n, err := s.Delete("implementations", Eq("component", "Memory"))
	if err != nil || n != 6 {
		t.Fatalf("delete Memory: n=%d err=%v", n, err)
	}
	checkIndexConsistency(t, s, "implementations")

	// Delete everything through the scan path.
	if _, err := s.Delete("implementations", nil); err != nil {
		t.Fatal(err)
	}
	checkIndexConsistency(t, s, "implementations")
	if n, _ := s.Count("implementations", nil); n != 0 {
		t.Errorf("count after delete-all = %d", n)
	}
}

// TestKeyEncodingInjective: multi-column string keys with embedded NUL
// or backslash must not collide — the verify-free fast paths trust key
// string equality to mean row equality.
func TestKeyEncodingInjective(t *testing.T) {
	s := New()
	if err := s.CreateTable(Schema{
		Table:   "pair",
		Columns: []Column{{Name: "a", Type: TString}, {Name: "b", Type: TString}},
		Key:     []string{"a", "b"},
		Indexes: []Index{{Columns: []string{"b", "a"}}},
	}); err != nil {
		t.Fatal(err)
	}
	// All of these must coexist (distinct keys) and resolve exactly.
	pairs := [][2]string{
		{"x\x00y", "z"},
		{"x", "y\x00z"},
		{`x\`, `0y` + "\x00z"},
		{"x", `\0y` + "\x00z"},
	}
	for i, p := range pairs {
		if err := s.Insert("pair", Row{"a": p[0], "b": p[1]}); err != nil {
			t.Fatalf("insert %d (%q,%q): %v", i, p[0], p[1], err)
		}
	}
	for i, p := range pairs {
		r, err := s.Get("pair", p[0], p[1])
		if err != nil || r["a"] != p[0] || r["b"] != p[1] {
			t.Errorf("Get %d (%q,%q) = %v, %v", i, p[0], p[1], r, err)
		}
		n, err := s.Count("pair", And(Eq("b", p[1]), Eq("a", p[0])))
		if err != nil || n != 1 {
			t.Errorf("indexed count %d (%q,%q) = %d, %v", i, p[0], p[1], n, err)
		}
	}
}

func TestGetPointLookup(t *testing.T) {
	s := newImplStore(t)
	for i := 0; i < 5; i++ {
		if err := s.Insert("implementations", implRowN(i, "Counter")); err != nil {
			t.Fatal(err)
		}
	}
	r, err := s.Get("implementations", "impl002")
	if err != nil || r["area"] != 2.0 {
		t.Fatalf("Get = %v, %v", r, err)
	}
	// Returned row is a copy.
	r["area"] = 99.0
	again, _ := s.Get("implementations", "impl002")
	if again["area"] != 2.0 {
		t.Error("Get leaked internal row storage")
	}
	if _, err := s.Get("implementations", "nope"); err == nil {
		t.Error("Get of missing key: want error")
	}
	if _, err := s.Get("implementations"); err == nil {
		t.Error("Get with wrong arity: want error")
	}
	if _, err := s.Get("nope", "x"); err == nil {
		t.Error("Get on missing table: want error")
	}
	// Composite keys and numeric canonicalization.
	if err := s.CreateTable(Schema{
		Table:   "pair",
		Columns: []Column{{Name: "a", Type: TString}, {Name: "b", Type: TInt}},
		Key:     []string{"a", "b"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert("pair", Row{"a": "x", "b": 7}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("pair", "x", int64(7)); err != nil {
		t.Errorf("Get with int64 key value: %v", err)
	}
	if _, err := s.Get("pair", "x", 7.0); err != nil {
		t.Errorf("Get with float64 key value: %v", err)
	}
	// Keyless tables cannot Get.
	if err := s.CreateTable(Schema{Table: "nokey", Columns: []Column{{Name: "a", Type: TInt}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("nokey", 1); err == nil {
		t.Error("Get on keyless table: want error")
	}
}

// TestPlannerFallback: predicates the planner cannot shape into an index
// probe must still return exactly the scan-path answer.
func TestPlannerFallback(t *testing.T) {
	s := indexedStore(t)
	for i := 0; i < 12; i++ {
		comp := "Counter"
		if i%2 == 0 {
			comp = "Register"
		}
		if err := s.Insert("implementations", implRowN(i, comp)); err != nil {
			t.Fatal(err)
		}
	}
	// Opaque Func predicate: full scan.
	rows, err := s.Select("implementations", Func(func(r Row) bool { return r["size"] == 1 }))
	if err != nil || len(rows) != 3 {
		t.Fatalf("Func select = %d rows (%v), want 3", len(rows), err)
	}
	// Eq on an unindexed column: full scan with verification.
	rows, err = s.Select("implementations", Eq("size", 1))
	if err != nil || len(rows) != 3 {
		t.Fatalf("unindexed Eq = %d rows (%v), want 3", len(rows), err)
	}
	// Index probe narrowed further by an opaque residue.
	rows, err = s.Select("implementations", And(
		Eq("component", "Counter"),
		Func(func(r Row) bool { return r["size"].(int) >= 2 }),
	))
	if err != nil || len(rows) != 3 {
		t.Fatalf("index+Func = %d rows (%v), want 3", len(rows), err)
	}
	for _, r := range rows {
		if r["component"] != "Counter" || r["size"].(int) < 2 {
			t.Errorf("row escaped the residual filter: %v", r)
		}
	}
	// Contradictory Eqs on one column must yield nothing, through any path.
	rows, err = s.Select("implementations", And(Eq("component", "Counter"), Eq("component", "Register")))
	if err != nil || len(rows) != 0 {
		t.Fatalf("contradictory Eq = %v (%v), want none", rows, err)
	}
	rows, err = s.Select("implementations", And(Eq("name", "impl001"), Eq("name", "impl002")))
	if err != nil || len(rows) != 0 {
		t.Fatalf("contradictory key Eq = %v (%v), want none", rows, err)
	}
	// A key Eq plus extra conjuncts verifies the residue on the one row.
	rows, err = s.Select("implementations", And(Eq("name", "impl001"), Eq("size", 3)))
	if err != nil || len(rows) != 0 {
		t.Fatalf("key Eq + failing residue = %v (%v), want none", rows, err)
	}
	rows, err = s.Select("implementations", And(Eq("name", "impl001"), Eq("size", 1)))
	if err != nil || len(rows) != 1 {
		t.Fatalf("key Eq + passing residue = %v (%v), want 1 row", rows, err)
	}
	// A type-mismatched Eq value whose %v rendering collides with a
	// stored key ("5" vs 5) must match nothing — the planner may not
	// probe an index key built from it.
	if err := s.Insert("implementations", Row{
		"name": "5", "component": "5", "size": 5, "area": 1.0, "parameterized": false,
	}); err != nil {
		t.Fatal(err)
	}
	rows, err = s.Select("implementations", Eq("name", 5))
	if err != nil || len(rows) != 0 {
		t.Fatalf("int query against string key = %v (%v), want none", rows, err)
	}
	rows, err = s.Select("implementations", Eq("component", 5))
	if err != nil || len(rows) != 0 {
		t.Fatalf("int query against string index = %v (%v), want none", rows, err)
	}
	if _, err := s.Get("implementations", 5); err == nil {
		t.Error("Get with int key value matched a string key")
	}
	if _, err := s.Delete("implementations", Eq("name", "5")); err != nil {
		t.Fatal(err)
	}
	// NaN equals nothing, even a stored NaN's identically rendered key.
	rows, err = s.Select("implementations", Eq("area", math.NaN()))
	if err != nil || len(rows) != 0 {
		t.Fatalf("NaN query = %v (%v), want none", rows, err)
	}
	// Insertion order is preserved on the index path.
	rows, err = s.Select("implementations", Eq("component", "Register"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1]["name"].(string) >= rows[i]["name"].(string) {
			t.Fatalf("index path broke insertion order: %v", rows)
		}
	}
}

func TestScanZeroCopyAndEarlyStop(t *testing.T) {
	s := indexedStore(t)
	for i := 0; i < 10; i++ {
		if err := s.Insert("implementations", implRowN(i, "Counter")); err != nil {
			t.Fatal(err)
		}
	}
	var visited []string
	err := s.Scan("implementations", Eq("component", "Counter"), func(r Row) bool {
		visited = append(visited, r["name"].(string))
		return len(visited) < 4
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(visited) != 4 || visited[0] != "impl000" || visited[3] != "impl003" {
		t.Errorf("scan visited %v", visited)
	}
	if err := s.Scan("nope", nil, func(Row) bool { return true }); err == nil {
		t.Error("Scan on missing table: want error")
	}
}

// TestCreateTableIndexValidation: a malformed secondary-index
// declaration refuses the whole table.
func TestCreateTableIndexValidation(t *testing.T) {
	for _, tc := range []struct {
		what    string
		indexes []Index
	}{
		{"duplicate index", []Index{{Columns: []string{"size"}}, {Columns: []string{"size"}}}},
		{"index on undeclared column", []Index{{Columns: []string{"bogus"}}}},
		{"index over no columns", []Index{{}}},
		{"index repeating a column", []Index{{Columns: []string{"size", "size"}}}},
	} {
		s := New()
		sc := implSchema()
		sc.Indexes = tc.indexes
		if err := s.CreateTable(sc); err == nil {
			t.Errorf("%s accepted", tc.what)
		}
		if len(s.Tables()) != 0 {
			t.Errorf("%s: a refused table was created", tc.what)
		}
	}
}

// TestIndexesSurviveSaveLoad: index declarations persist with the schema
// and are rebuilt, serving queries after a round-trip.
func TestIndexesSurviveSaveLoad(t *testing.T) {
	s := indexedStore(t)
	for i := 0; i < 8; i++ {
		if err := s.Insert("implementations", implRowN(i, "Counter")); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "store.snap")
	if err := s.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenSnapshot(path, SnapshotOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := s2.SchemaOf("implementations")
	if err != nil || len(sc.Indexes) != 2 {
		t.Fatalf("reloaded schema indexes = %+v (%v), want 2", sc.Indexes, err)
	}
	checkIndexConsistency(t, s2, "implementations")
	n, err := s2.Count("implementations", Eq("component", "Counter"))
	if err != nil || n != 8 {
		t.Errorf("count after reload = %d (%v)", n, err)
	}
}

// TestConcurrentScanAndWriters is the -race stress test: readers on the
// no-copy Scan path race with Insert/Upsert/Delete writers; the
// store must stay consistent and race-free.
func TestConcurrentScanAndWriters(t *testing.T) {
	s := indexedStore(t)
	for i := 0; i < 50; i++ {
		if err := s.Insert("implementations", implRowN(i, "Counter")); err != nil {
			t.Fatal(err)
		}
	}
	const rounds = 200
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	report := func(err error) {
		select {
		case errc <- err:
		default:
		}
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				n := 1000 + w*rounds + i
				if err := s.Insert("implementations", implRowN(n, "Register")); err != nil {
					report(err)
					return
				}
				if i%3 == 0 {
					if _, err := s.Delete("implementations", Eq("name", fmt.Sprintf("impl%03d", n))); err != nil {
						report(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			r, err := s.Get("implementations", fmt.Sprintf("impl%03d", i%50))
			if err == nil {
				r["area"] = r["area"].(float64) + 1
				err = s.Upsert("implementations", r)
			}
			if err != nil {
				report(err)
				return
			}
		}
	}()
	for rdr := 0; rdr < 3; rdr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				seen := 0
				if err := s.Scan("implementations", Eq("component", "Counter"), func(r Row) bool {
					if r["component"] != "Counter" {
						report(fmt.Errorf("scan visited wrong row: %v", r))
						return false
					}
					seen++
					return true
				}); err != nil {
					report(err)
					return
				}
				if seen != 50 {
					report(fmt.Errorf("scan saw %d Counter rows, want 50", seen))
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	checkIndexConsistency(t, s, "implementations")
}

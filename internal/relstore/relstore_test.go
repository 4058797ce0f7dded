package relstore

import (
	"fmt"
	"path/filepath"
	"testing"
	"testing/quick"
)

func implSchema() Schema {
	return Schema{
		Table: "implementations",
		Columns: []Column{
			{Name: "name", Type: TString},
			{Name: "component", Type: TString},
			{Name: "size", Type: TInt},
			{Name: "area", Type: TFloat},
			{Name: "parameterized", Type: TBool},
		},
		Key: []string{"name"},
	}
}

func newImplStore(t *testing.T) *Store {
	t.Helper()
	s := New()
	if err := s.CreateTable(implSchema()); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCreateTableValidation(t *testing.T) {
	s := New()
	if err := s.CreateTable(Schema{}); err == nil {
		t.Error("empty schema accepted")
	}
	if err := s.CreateTable(Schema{Table: "t"}); err == nil {
		t.Error("no-column schema accepted")
	}
	if err := s.CreateTable(Schema{
		Table:   "t",
		Columns: []Column{{Name: "a", Type: TInt}, {Name: "a", Type: TString}},
	}); err == nil {
		t.Error("duplicate column accepted")
	}
	if err := s.CreateTable(Schema{
		Table:   "t",
		Columns: []Column{{Name: "a", Type: TInt}},
		Key:     []string{"b"},
	}); err == nil {
		t.Error("undeclared key column accepted")
	}
	if err := s.CreateTable(Schema{Table: "t", Columns: []Column{{Name: "a", Type: TInt}}}); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable(Schema{Table: "t", Columns: []Column{{Name: "a", Type: TInt}}}); err == nil {
		t.Error("duplicate table accepted")
	}
}

func TestInsertSelect(t *testing.T) {
	s := newImplStore(t)
	rows := []Row{
		{"name": "ripple_counter", "component": "Counter", "size": 5, "area": 17.2, "parameterized": true},
		{"name": "sync_counter", "component": "Counter", "size": 5, "area": 23.6, "parameterized": true},
		{"name": "adder4", "component": "Adder_Subtractor", "size": 4, "area": 10.0, "parameterized": false},
	}
	for _, r := range rows {
		if err := s.Insert("implementations", r); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.Select("implementations", Eq("component", "Counter"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("Select counters = %d rows, want 2", len(got))
	}
	if got[0]["name"] != "ripple_counter" {
		t.Errorf("insertion order not preserved: first = %v", got[0]["name"])
	}
	one, err := s.Get("implementations", "adder4")
	if err != nil {
		t.Fatal(err)
	}
	if one["size"] != 4 {
		t.Errorf("adder4 size = %v", one["size"])
	}
}

func TestInsertSchemaViolations(t *testing.T) {
	s := newImplStore(t)
	base := Row{"name": "x", "component": "Counter", "size": 1, "area": 1.0, "parameterized": false}
	if err := s.Insert("nope", base); err == nil {
		t.Error("insert into missing table accepted")
	}
	miss := base.clone()
	delete(miss, "size")
	if err := s.Insert("implementations", miss); err == nil {
		t.Error("missing column accepted")
	}
	bad := base.clone()
	bad["size"] = "five"
	if err := s.Insert("implementations", bad); err == nil {
		t.Error("type mismatch accepted")
	}
	extra := base.clone()
	extra["bogus"] = 1
	if err := s.Insert("implementations", extra); err == nil {
		t.Error("undeclared column accepted")
	}
}

func TestPrimaryKeyConflict(t *testing.T) {
	s := newImplStore(t)
	r := Row{"name": "x", "component": "Counter", "size": 1, "area": 1.0, "parameterized": false}
	if err := s.Insert("implementations", r); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert("implementations", r); err == nil {
		t.Error("duplicate key accepted")
	}
	// Upsert replaces instead.
	r2 := r.clone()
	r2["size"] = 9
	if err := s.Upsert("implementations", r2); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("implementations", "x")
	if err != nil {
		t.Fatal(err)
	}
	if got["size"] != 9 {
		t.Errorf("after upsert size = %v, want 9", got["size"])
	}
	n, err := s.Count("implementations", nil)
	if err != nil || n != 1 {
		t.Errorf("count = %d (%v), want 1", n, err)
	}
}

// TestUpdateDelete: a row updated in place by Upsert keeps its scan
// position, and a predicate Delete removes every match and frees their
// keys.
func TestUpdateDelete(t *testing.T) {
	s := newImplStore(t)
	for i := 0; i < 5; i++ {
		r := Row{"name": fmt.Sprintf("c%d", i), "component": "Counter", "size": i, "area": 1.0, "parameterized": false}
		if err := s.Insert("implementations", r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Upsert("implementations", Row{"name": "c2", "component": "Counter", "size": 2, "area": 99.0, "parameterized": false}); err != nil {
		t.Fatal(err)
	}
	rows, err := s.Select("implementations", nil)
	if err != nil || len(rows) != 5 || rows[2]["name"] != "c2" || rows[2]["area"] != 99.0 {
		t.Fatalf("after update: %v, %v", rows, err)
	}
	d, err := s.Delete("implementations", Eq("component", "Counter"))
	if err != nil || d != 5 {
		t.Fatalf("delete n=%d err=%v", d, err)
	}
	n, _ := s.Count("implementations", nil)
	if n != 0 {
		t.Errorf("count after delete = %d", n)
	}
	// Key slot must be reusable after delete.
	if err := s.Insert("implementations", Row{"name": "c0", "component": "Counter", "size": 0, "area": 1.0, "parameterized": false}); err != nil {
		t.Errorf("reinsert after delete: %v", err)
	}
}

func TestAndPredicate(t *testing.T) {
	s := newImplStore(t)
	for i := 0; i < 4; i++ {
		r := Row{"name": fmt.Sprintf("c%d", i), "component": "Counter", "size": i % 2, "area": 1.0, "parameterized": i < 2}
		if err := s.Insert("implementations", r); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := s.Select("implementations", And(Eq("size", 1), Eq("parameterized", true)))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0]["name"] != "c1" {
		t.Errorf("And select = %v", rows)
	}
}

func TestNumericEqAcrossTypes(t *testing.T) {
	// After JSON round-trip ints may be stored as int64; Eq must still
	// match plain int literals.
	if !valueEqual(int64(5), 5) || !valueEqual(5.0, 5) || valueEqual(5, 6) {
		t.Error("numeric equality normalization broken")
	}
	if valueEqual("5", 5) {
		t.Error("string/number must not compare equal")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s := newImplStore(t)
	rows := []Row{
		{"name": "a", "component": "Counter", "size": 3, "area": 20.5, "parameterized": true},
		{"name": "b", "component": "Register", "size": 8, "area": 11.0, "parameterized": false},
	}
	for _, r := range rows {
		if err := s.Insert("implementations", r); err != nil {
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
	got, err := s2.Select("implementations", Eq("name", "a"))
	if err != nil || len(got) != 1 {
		t.Fatalf("reloaded select: %v %v", got, err)
	}
	if got[0]["size"] != 3 {
		t.Errorf("int column after reload = %T %v, want int 3 (canonical TInt type)", got[0]["size"], got[0]["size"])
	}
	if got[0]["area"] != 20.5 || got[0]["parameterized"] != true {
		t.Errorf("reloaded row = %v", got[0])
	}
	// Key constraint survives reload.
	if err := s2.Insert("implementations", rows[0]); err == nil {
		t.Error("duplicate key accepted after reload")
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := OpenSnapshot(filepath.Join(t.TempDir(), "nope.snap"), SnapshotOptions{}); err == nil {
		t.Error("OpenSnapshot of missing file: want error")
	}
}

func TestTablesAndSchemaOf(t *testing.T) {
	s := newImplStore(t)
	if err := s.CreateTable(Schema{Table: "aaa", Columns: []Column{{Name: "x", Type: TInt}}}); err != nil {
		t.Fatal(err)
	}
	names := s.Tables()
	if len(names) != 2 || names[0] != "aaa" || names[1] != "implementations" {
		t.Errorf("Tables() = %v", names)
	}
	sc, err := s.SchemaOf("implementations")
	if err != nil || sc.Table != "implementations" || len(sc.Columns) != 5 {
		t.Errorf("SchemaOf = %+v, %v", sc, err)
	}
	if _, err := s.SchemaOf("nope"); err == nil {
		t.Error("SchemaOf missing table: want error")
	}
}

func TestSelectReturnsCopies(t *testing.T) {
	s := newImplStore(t)
	if err := s.Insert("implementations", Row{"name": "a", "component": "Counter", "size": 1, "area": 1.0, "parameterized": false}); err != nil {
		t.Fatal(err)
	}
	rows, _ := s.Select("implementations", nil)
	rows[0]["size"] = 999
	again, _ := s.Select("implementations", nil)
	if again[0]["size"] != 1 {
		t.Error("Select leaked internal row storage")
	}
}

func TestInsertCopiesCallerRow(t *testing.T) {
	s := newImplStore(t)
	r := Row{"name": "a", "component": "Counter", "size": 1, "area": 1.0, "parameterized": false}
	if err := s.Insert("implementations", r); err != nil {
		t.Fatal(err)
	}
	r["size"] = 42
	got, _ := s.Get("implementations", "a")
	if got["size"] != 1 {
		t.Error("Insert aliased caller row")
	}
}

func TestPropertyInsertThenSelectByKey(t *testing.T) {
	// Property: any batch of distinct keys inserted can each be found by
	// exact key lookup, and count matches batch size.
	f := func(keys []uint16) bool {
		s := New()
		if err := s.CreateTable(Schema{
			Table:   "t",
			Columns: []Column{{Name: "k", Type: TString}, {Name: "v", Type: TInt}},
			Key:     []string{"k"},
		}); err != nil {
			return false
		}
		uniq := make(map[string]int)
		for i, k := range keys {
			uniq[fmt.Sprintf("k%d", k)] = i
		}
		for k, v := range uniq {
			if err := s.Insert("t", Row{"k": k, "v": v}); err != nil {
				return false
			}
		}
		for k, v := range uniq {
			r, err := s.Get("t", k)
			if err != nil || r["v"] != v {
				return false
			}
		}
		n, err := s.Count("t", nil)
		return err == nil && n == len(uniq)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestInsertEmptyStringKeyEnforced(t *testing.T) {
	s := New()
	if err := s.CreateTable(Schema{
		Table:   "named",
		Columns: []Column{{Name: "name", Type: TString}},
		Key:     []string{"name"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert("named", Row{"name": ""}); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert("named", Row{"name": ""}); err == nil {
		t.Error("duplicate empty-string key accepted")
	}
}

func TestCanonicalColumnTypes(t *testing.T) {
	s := newImplStore(t)
	if err := s.Insert("implementations", Row{
		"name": "a", "component": "c", "size": 4, "area": 7, "parameterized": true,
	}); err != nil {
		t.Fatal(err)
	}
	row, err := s.Get("implementations", "a")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := row["size"].(int); !ok {
		t.Errorf("size stored as %T, want int", row["size"])
	}
	if _, ok := row["area"].(float64); !ok {
		t.Errorf("area stored as %T, want float64", row["area"])
	}
	// Upsert keeps canonical types too.
	if err := s.Upsert("implementations", Row{
		"name": "a", "component": "c", "size": int64(8), "area": float32(2), "parameterized": true,
	}); err != nil {
		t.Fatal(err)
	}
	row, err = s.Get("implementations", "a")
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := row["size"].(int); !ok || v != 8 {
		t.Errorf("after upsert: size = %v (%T)", row["size"], row["size"])
	}
	if v, ok := row["area"].(float64); !ok || v != 2 {
		t.Errorf("after upsert: area = %v (%T)", row["area"], row["area"])
	}
}

func TestFloatKeyCanonicalizedBeforeIndexing(t *testing.T) {
	s := New()
	if err := s.CreateTable(Schema{
		Table:   "f",
		Columns: []Column{{Name: "k", Type: TFloat}, {Name: "v", Type: TInt}},
		Key:     []string{"k"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert("f", Row{"k": float32(0.1), "v": 1}); err != nil {
		t.Fatal(err)
	}
	// Upserting the stored (canonical float64) form must replace, not
	// duplicate, the row.
	rows, err := s.Select("f", nil)
	if err != nil || len(rows) != 1 {
		t.Fatalf("select = %v, %v", rows, err)
	}
	row := rows[0]
	row["v"] = 2
	if err := s.Upsert("f", row); err != nil {
		t.Fatal(err)
	}
	n, err := s.Count("f", nil)
	if err != nil || n != 1 {
		t.Fatalf("count = %d (%v), want 1", n, err)
	}
}

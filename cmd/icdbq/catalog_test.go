package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"icdb/internal/icdb"
	"icdb/internal/relstore"
)

// exportStore builds a store exercising what the JSON detour could
// lose: every column type, a composite key, secondary indexes, a
// keyless and an empty table, strings holding the index-key separator,
// escapes, HTML-special and multi-byte characters, ints past 2^53, and
// floats whose shortest decimal form is not obvious.
func exportStore(t *testing.T) *relstore.Store {
	t.Helper()
	s := relstore.New()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.CreateTable(relstore.Schema{
		Table: "parts",
		Columns: []relstore.Column{
			{Name: "name", Type: relstore.TString}, {Name: "comp", Type: relstore.TString},
			{Name: "size", Type: relstore.TInt}, {Name: "area", Type: relstore.TFloat}, {Name: "param", Type: relstore.TBool},
		},
		Key:     []string{"comp", "name"},
		Indexes: []relstore.Index{{Columns: []string{"comp"}}, {Columns: []string{"comp", "size"}}},
	}))
	names := []string{"plain", "nul\x00sep", `back\slash`, `<b>&"q"</b>`, "größe→∞", ""}
	sizes := []int{0, -1, 1 << 40, math.MaxInt64, math.MinInt64, 1<<53 + 1}
	areas := []float64{0, 0.1, -2.5e-300, math.MaxFloat64, math.SmallestNonzeroFloat64, math.Copysign(0, -1)}
	for i, n := range names {
		must(s.Insert("parts", relstore.Row{"name": n, "comp": "c" + string(rune('0'+i%2)), "size": sizes[i], "area": areas[i], "param": i%2 == 0}))
	}
	// Insertion order is not key order, and a deleted row leaves a gap
	// in the rowids that a re-import closes without changing the file.
	if _, err := s.Delete("parts", relstore.Eq("name", "plain")); err != nil {
		t.Fatal(err)
	}
	must(s.CreateTable(relstore.Schema{Table: "log", Columns: []relstore.Column{{Name: "msg", Type: relstore.TString}}}))
	must(s.Insert("log", relstore.Row{"msg": "b"}))
	must(s.Insert("log", relstore.Row{"msg": "a"}))
	must(s.CreateTable(relstore.Schema{Table: "empty", Columns: []relstore.Column{{Name: "x", Type: relstore.TInt}}, Key: []string{"x"}}))
	return s
}

// roundTrip saves s, exports the file and imports the JSON again,
// returning both snapshot files' bytes.
func roundTrip(t *testing.T, s *relstore.Store) (before, after []byte) {
	t.Helper()
	dir := t.TempDir()
	snap, jsonPath, back := filepath.Join(dir, "a.snap"), filepath.Join(dir, "a.json"), filepath.Join(dir, "b.snap")
	if err := s.SaveSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	// "icdbq export" prints to standard output: point it at the file.
	f, err := os.Create(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = f
	err = run([]string{"export", snap})
	os.Stdout = stdout
	if cerr := f.Close(); err != nil || cerr != nil {
		t.Fatal(err, cerr)
	}
	if err := run([]string{"import", jsonPath, back}); err != nil {
		t.Fatal(err)
	}
	before, err = os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	after, err = os.ReadFile(back)
	if err != nil {
		t.Fatal(err)
	}
	return before, after
}

// TestExportImportByteIdentity: snapshot → export → import → snapshot
// reproduces the file byte for byte — schemas, index declarations, row
// order and every value — for a store built to stress the encoding and
// for a full seeded ICDB catalog.
func TestExportImportByteIdentity(t *testing.T) {
	seeded := relstore.New()
	if _, err := icdb.Open(seeded); err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*relstore.Store{"stress": exportStore(t), "seeded catalog": seeded, "empty": relstore.New()} {
		if before, after := roundTrip(t, s); !bytes.Equal(before, after) {
			t.Errorf("%s: export -> import changed the snapshot (%d vs %d bytes)", name, len(before), len(after))
		}
	}
}

// TestExportRefusesWhatJSONCannotCarry: a NaN or infinite float, or a
// string that is not UTF-8, fails the export with nothing written.
func TestExportRefusesWhatJSONCannotCarry(t *testing.T) {
	for name, row := range map[string]relstore.Row{
		"NaN":           {"k": "a", "v": math.NaN()},
		"infinity":      {"k": "a", "v": math.Inf(1)},
		"invalid UTF-8": {"k": "a\xff", "v": 1.0},
	} {
		s := relstore.New()
		if err := s.CreateTable(relstore.Schema{Table: "t", Columns: []relstore.Column{{Name: "k", Type: relstore.TString}, {Name: "v", Type: relstore.TFloat}}}); err != nil {
			t.Fatal(err)
		}
		if err := s.Insert("t", row); err != nil {
			t.Fatal(err)
		}
		snap := filepath.Join(t.TempDir(), "bad.snap")
		if err := s.SaveSnapshot(snap); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := runExport(snap, &out); err == nil || out.Len() != 0 {
			t.Errorf("%s: export err = %v with %d byte(s) written, want an error and no output", name, err, out.Len())
		}
	}
}

// TestImportErrorContext: import goes through CreateTable and Insert,
// so malformed JSON catalogs are refused with the table, the row index
// and the store's own complaint — a non-integral value in an int column
// is an error, not a truncation — and nothing is written.
func TestImportErrorContext(t *testing.T) {
	dir := t.TempDir()
	schema := `"schema": {"Table": "t", "Columns": [{"Name": "n", "Type": 0}, {"Name": "size", "Type": 1}], "Key": ["n"]}`
	imp := func(t *testing.T, body string) (*relstore.Store, error) {
		t.Helper()
		jsonPath, snap := filepath.Join(dir, "in.json"), filepath.Join(t.TempDir(), "out.snap")
		if err := os.WriteFile(jsonPath, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := run([]string{"import", jsonPath, snap}); err != nil {
			if _, statErr := os.Stat(snap); statErr == nil {
				t.Error("failed import left a catalog file behind")
			}
			return nil, err
		}
		return relstore.OpenSnapshot(snap, relstore.SnapshotOptions{})
	}
	for _, tc := range []struct {
		name, rows string
		want       []string
	}{
		{"wrong type", `[{"n": "a", "size": "five"}]`, []string{`table "t"`, "row 0", `column "size"`, "want int"}},
		{"fractional int", `[{"n": "a", "size": 1}, {"n": "b", "size": 2.5}]`, []string{`table "t"`, "row 1", `column "size"`, `"2.5"`}},
		{"missing column", `[{"n": "a"}]`, []string{`table "t"`, "row 0", `missing column "size"`}},
		{"undeclared column", `[{"n": "a", "size": 1, "bogus": true}]`, []string{`table "t"`, "row 0", `no column "bogus"`}},
		{"duplicate key", `[{"n": "a", "size": 1}, {"n": "a", "size": 2}]`, []string{`table "t"`, "row 1", "duplicate key"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := imp(t, `{"t": {`+schema+`, "rows": `+tc.rows+`}}`)
			if err == nil {
				t.Fatal("malformed JSON catalog imported successfully")
			}
			for _, frag := range tc.want {
				if !strings.Contains(err.Error(), frag) {
					t.Errorf("error %q missing %q", err, frag)
				}
			}
		})
	}
	// A valid file — this is also the layout the retired relstore Save
	// wrote — imports with canonical column types.
	s, err := imp(t, `{"t": {`+schema+`, "rows": [{"n": "a", "size": 3}]}}`)
	if err != nil {
		t.Fatal(err)
	}
	if r, err := s.Get("t", "a"); err != nil || r["size"] != 3 {
		t.Errorf("imported row = %v (%v), want size int 3", r, err)
	}
	if _, err := imp(t, `not json`); err == nil {
		t.Error("a file that is not JSON imported successfully")
	}
}

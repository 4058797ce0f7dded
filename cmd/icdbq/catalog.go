// catalog.go implements "icdbq export" and "icdbq import": a catalog's
// way across snapshot format versions (internal/relstore/SNAPSHOT.md).
// The JSON is one object per table — its schema and its rows in
// insertion order — so importing an export reproduces the snapshot byte
// for byte.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"unicode/utf8"

	"icdb/internal/relstore"
)

type jsonTable struct {
	Schema relstore.Schema `json:"schema"`
	Rows   []relstore.Row  `json:"rows"`
}

// runExport writes the catalog at path to w as JSON, or fails having
// written nothing on a value JSON cannot carry: a NaN or infinite float
// (the encoder's error), or a string that is not UTF-8 (which the
// encoder would silently rewrite).
func runExport(path string, w io.Writer) error {
	s, err := relstore.OpenSnapshot(path, relstore.SnapshotOptions{})
	if err != nil {
		return err
	}
	out := make(map[string]jsonTable)
	for _, name := range s.Tables() {
		t := jsonTable{Rows: []relstore.Row{}}
		if t.Schema, err = s.SchemaOf(name); err != nil {
			return err
		}
		var bad error
		err = s.Scan(name, nil, func(r relstore.Row) bool {
			for c, v := range r {
				if str, ok := v.(string); ok && !utf8.ValidString(str) {
					bad = fmt.Errorf("export %s: table %q row %d column %q: %q is not valid UTF-8", path, name, len(t.Rows), c, str)
					return false
				}
			}
			t.Rows = append(t.Rows, r)
			return true
		})
		if err = errors.Join(err, bad); err != nil {
			return err
		}
		out[name] = t
	}
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return fmt.Errorf("export %s: %w", path, err)
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// runImport builds a catalog from exported JSON through the validating
// CreateTable/Insert path and saves it at path. Numbers are typed by
// their column: an int column takes only integral values.
func runImport(jsonPath, path string) error {
	f, err := os.Open(jsonPath)
	if err != nil {
		return err
	}
	defer f.Close()
	var in map[string]jsonTable
	dec := json.NewDecoder(f)
	dec.UseNumber()
	if err := dec.Decode(&in); err != nil {
		return fmt.Errorf("import %s: %w", jsonPath, err)
	}
	s := relstore.New()
	for _, t := range in { // keyed by table name; the schema's own copy is the one used
		name := t.Schema.Table
		if err := s.CreateTable(t.Schema); err != nil {
			return fmt.Errorf("import %s: %w", jsonPath, err)
		}
		for i, r := range t.Rows {
			for _, c := range t.Schema.Columns {
				if n, ok := r[c.Name].(json.Number); ok && c.Type == relstore.TInt {
					r[c.Name], err = n.Int64()
				} else if ok {
					r[c.Name], err = n.Float64()
				}
				if err != nil {
					return fmt.Errorf("import %s: table %q row %d column %q: %w", jsonPath, name, i, c.Name, err)
				}
			}
			if err := s.Insert(name, r); err != nil {
				return fmt.Errorf("import %s: table %q row %d: %w", jsonPath, name, i, err)
			}
		}
	}
	return s.SaveSnapshot(path)
}

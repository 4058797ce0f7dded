package relstore

// Microbenchmarks for the planner's access paths: keyed point lookups,
// secondary-index probes, the zero-copy Scan, and the full-scan fallback
// they replace.

import (
	"fmt"
	"testing"
)

// benchStore builds an implementations table with n rows, keyed by name,
// with a secondary index on (component).
func benchStore(b *testing.B, n int) *Store {
	b.Helper()
	sc := implSchema()
	sc.Indexes = []Index{{Columns: []string{"component"}}}
	s := New()
	if err := s.CreateTable(sc); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := s.Insert("implementations", implRowN(i, fmt.Sprintf("Comp%02d", i%50))); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

const benchRows = 10000

func BenchmarkGet(b *testing.B) {
	s := benchStore(b, benchRows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Get("implementations", fmt.Sprintf("impl%03d", i%benchRows)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectByKey(b *testing.B) {
	s := benchStore(b, benchRows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rows, err := s.Select("implementations", Eq("name", fmt.Sprintf("impl%03d", i%benchRows))); err != nil || len(rows) != 1 {
			b.Fatal(err, len(rows))
		}
	}
}

// BenchmarkSelectFullScan forces the scan fallback with an opaque
// Func predicate — the shape every keyed lookup had before the planner.
func BenchmarkSelectFullScan(b *testing.B) {
	s := benchStore(b, benchRows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := fmt.Sprintf("impl%03d", i%benchRows)
		if rows, err := s.Select("implementations", Func(func(r Row) bool { return r["name"] == name })); err != nil || len(rows) != 1 {
			b.Fatal(err, len(rows))
		}
	}
}

func BenchmarkSelectSecondaryIndex(b *testing.B) {
	s := benchStore(b, benchRows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := s.Select("implementations", Eq("component", fmt.Sprintf("Comp%02d", i%50)))
		if err != nil || len(rows) == 0 {
			b.Fatal(err, len(rows))
		}
	}
}

// BenchmarkSelectUnindexedColumn is the same selectivity without an
// index: planner falls back to the verified scan.
func BenchmarkSelectUnindexedColumn(b *testing.B) {
	s := benchStore(b, benchRows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := s.Select("implementations", Eq("size", i%4))
		if err != nil || len(rows) == 0 {
			b.Fatal(err, len(rows))
		}
	}
}

// BenchmarkRowsCursor drives the iterator form of the planned read path;
// it should track BenchmarkScanNoCopy, not BenchmarkSelectCloneAll.
func BenchmarkRowsCursor(b *testing.B) {
	s := benchStore(b, benchRows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for _, err := range s.Rows("implementations", nil) {
			if err != nil {
				b.Fatal(err)
			}
			n++
		}
		if n != benchRows {
			b.Fatal(n)
		}
	}
}

// Snapshot persistence, over the same store shape the other benchmarks
// use.
func BenchmarkSaveSnapshot(b *testing.B) {
	s := benchStore(b, benchRows)
	path := b.TempDir() + "/store.snap"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.SaveSnapshot(path); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOpenSnapshot(b *testing.B) {
	s := benchStore(b, benchRows)
	path := b.TempDir() + "/store.snap"
	if err := s.SaveSnapshot(path); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := OpenSnapshot(path, SnapshotOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScanNoCopy(b *testing.B) {
	s := benchStore(b, benchRows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := s.Scan("implementations", nil, func(r Row) bool {
			n++
			return true
		}); err != nil || n != benchRows {
			b.Fatal(err, n)
		}
	}
}

// BenchmarkSelectCloneAll is Scan's cloning counterpart: what every
// whole-table read cost before the visitor API existed.
func BenchmarkSelectCloneAll(b *testing.B) {
	s := benchStore(b, benchRows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := s.Select("implementations", nil)
		if err != nil || len(rows) != benchRows {
			b.Fatal(err, len(rows))
		}
	}
}

func BenchmarkCountIndexed(b *testing.B) {
	s := benchStore(b, benchRows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := s.Count("implementations", Eq("component", "Comp07"))
		if err != nil || n == 0 {
			b.Fatal(err, n)
		}
	}
}

func BenchmarkInsertWithIndexes(b *testing.B) {
	s := benchStore(b, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Insert("implementations", implRowN(i, fmt.Sprintf("Comp%02d", i%50))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeleteByKey(b *testing.B) {
	s := benchStore(b, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Insert("implementations", implRowN(i, "Comp00")); err != nil {
			b.Fatal(err)
		}
		if n, err := s.Delete("implementations", Eq("name", fmt.Sprintf("impl%03d", i))); err != nil || n != 1 {
			b.Fatal(err, n)
		}
	}
}

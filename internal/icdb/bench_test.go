package icdb_test

// Benchmarks for the ICDB read path over synthetic catalogs of 1k/10k/
// 100k implementations (see synth_test.go).

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"icdb/internal/expand"
	"icdb/internal/genus"
	"icdb/internal/icdb"
	"icdb/internal/relstore"
)

var benchSizes = []int{1000, 10000, 100000}

var (
	benchMu  sync.Mutex
	benchDBs = map[int]*icdb.DB{}
)

// benchDB returns the n-implementation catalog, built once per process
// and shared (read-only) by all benchmarks.
func benchDB(b *testing.B, n int) *icdb.DB {
	b.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	if db, ok := benchDBs[n]; ok {
		return db
	}
	db, err := newSynthDB(n)
	if err != nil {
		b.Fatal(err)
	}
	benchDBs[n] = db
	return db
}

func sizeRun(b *testing.B, f func(b *testing.B, n int)) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			f(b, n)
		})
	}
}

func BenchmarkQueryByFunction(b *testing.B) {
	maxArea := attrCmp(b, "area", icdb.CmpLE, 50)
	sizeRun(b, func(b *testing.B, n int) {
		db := benchDB(b, n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cands, err := db.FindAll(icdb.Query{
				Functions:   []genus.Function{genus.FuncADD},
				Constraints: []icdb.Constraint{maxArea},
				Order:       icdb.Order{Attr: icdb.OrderKeyCost},
			})
			if err != nil || len(cands) == 0 {
				b.Fatal(err, len(cands))
			}
		}
	})
}

// BenchmarkQueryByFunctionScan is the streaming result path: same
// candidate set as BenchmarkQueryByFunction, but yielded row by row with
// O(1) allocation per row instead of materialized, cloned, and sorted.
func BenchmarkQueryByFunctionScan(b *testing.B) {
	q := icdb.Query{
		Functions:   []genus.Function{genus.FuncADD},
		Constraints: []icdb.Constraint{attrCmp(b, "area", icdb.CmpLE, 50)},
	}
	sizeRun(b, func(b *testing.B, n int) {
		db := benchDB(b, n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rows := 0
			err := db.Find(q, func(c icdb.Candidate) bool {
				rows++
				return true
			})
			if err != nil || rows == 0 {
				b.Fatal(err, rows)
			}
		}
	})
}

func BenchmarkQueryByFunctionsTopK(b *testing.B) {
	sizeRun(b, func(b *testing.B, n int) {
		db := benchDB(b, n)
		q := icdb.Query{
			Functions:   []genus.Function{genus.FuncADD, genus.FuncSUB},
			Constraints: []icdb.Constraint{icdb.ForWidth(8)},
			Limit:       5,
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cands, err := db.FindAll(q)
			if err != nil || len(cands) == 0 {
				b.Fatal(err, len(cands))
			}
		}
	})
}

// BenchmarkQueryOrderedAtWidth is the binder's inner-loop question with
// everything on: "find component executing ADD with area <= 2000 at
// width 8 order by delay limit 10" over a catalog where every synthetic
// implementation carries two estimator expressions. Each candidate costs
// two estimator evaluations, three slot comparisons and a heap offer;
// ns/candidate is that cost, allocs/op must not grow with n.
func BenchmarkQueryOrderedAtWidth(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			db, err := newSynthDB(n)
			if err != nil {
				b.Fatal(err)
			}
			if err := populateEstimators(db, n); err != nil {
				b.Fatal(err)
			}
			fns := []genus.Function{genus.FuncADD}
			cands := 0
			if err := db.Find(icdb.Query{Functions: fns}, func(icdb.Candidate) bool { cands++; return true }); err != nil {
				b.Fatal(err)
			}
			q := icdb.Query{
				Functions:   fns,
				Constraints: []icdb.Constraint{attrCmp(b, "area", icdb.CmpLE, 2000)},
				Width:       8,
				Order:       icdb.Order{Attr: "delay"},
				Limit:       10,
			}
			query := func() {
				got := 0
				err := db.Find(q, func(icdb.Candidate) bool { got++; return true })
				if err != nil || got != 10 {
					b.Fatal(err, got)
				}
			}
			query() // the first width query builds the estimator cache
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				query()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cands), "ns/candidate")
		})
	}
}

func BenchmarkImplByName(b *testing.B) {
	sizeRun(b, func(b *testing.B, n int) {
		db := benchDB(b, n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := db.ImplByName(nameOf(i % n)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkRegisterImpl(b *testing.B) {
	db := benchDB(b, 1000)
	im := implAt(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.RegisterImpl(im); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExpandCold measures a full expansion with empty memo caches;
// BenchmarkExpandWarm measures the template-cache hit path.
func BenchmarkExpandCold(b *testing.B) {
	db, err := icdb.Open(relstore.New())
	if err != nil {
		b.Fatal(err)
	}
	params := map[string]int{"size": 8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := expand.New(db).ExpandImpl("cnt_up", params); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExpandWarm(b *testing.B) {
	db, err := icdb.Open(relstore.New())
	if err != nil {
		b.Fatal(err)
	}
	ex := expand.New(db)
	params := map[string]int{"size": 8}
	if _, err := ex.ExpandImpl("cnt_up", params); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.ExpandImpl("cnt_up", params); err != nil {
			b.Fatal(err)
		}
	}
}

// Persistence of the whole catalog.
func BenchmarkSaveSnapshot(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			db := benchDB(b, n)
			path := filepath.Join(b.TempDir(), "icdb.snap")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := db.Store().SaveSnapshot(path); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkOpenSnapshot(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			db := benchDB(b, n)
			path := filepath.Join(b.TempDir(), "icdb.snap")
			if err := db.Store().SaveSnapshot(path); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := relstore.OpenSnapshot(path, relstore.SnapshotOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// explBenchDB records an n-point exploration cloud (two axes spread by
// fixed mixers, so the frontier is a curve rather than one corner) into
// a fresh database and warms the frontier cache's whole-relation,
// component and generator scopes. The closing write takes the one-off
// copy-on-write clone of the relation that the warming scans provoke,
// so the timed loops measure the steady state.
func explBenchDB(b *testing.B, n int) *icdb.DB {
	b.Helper()
	db, err := icdb.Open(relstore.New())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := db.RecordExploration(explBenchPoint(i, 0)); err != nil {
			b.Fatal(err)
		}
	}
	for _, q := range []icdb.ParetoQuery{{}, {Component: genus.CompCounter}, {Generator: "gen_cloud"}} {
		if _, err := db.ParetoFrontier(q); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.RecordExploration(explBenchPoint(n, 0)); err != nil {
		b.Fatal(err)
	}
	return db
}

// explBenchPoint is point i of the cloud at re-record round r: a new
// round moves the point in sweep order.
func explBenchPoint(i, r int) icdb.Exploration {
	return icdb.Exploration{
		Generator: "gen_cloud",
		Bindings:  fmt.Sprintf("p=%d", i),
		Component: genus.CompCounter,
		Width:     1 + (i*5)%128,
		Area:      float64(1 + (i*13+r*31+4567)%9973),
		Delay:     float64(1 + (i*7+r*17+389)%997),
	}
}

// BenchmarkParetoAfterWrite is the record-then-ask loop: every
// iteration writes one design point and then asks for the first ten
// frontier points, the query a write used to turn into a full rebuild.
// "move" re-records a known point with new values (the old value leaves
// its place, so the query folds the scope); "add" records a point never
// seen before, which the frontier-only query absorbs without folding.
func BenchmarkParetoAfterWrite(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		for _, mode := range []string{"move", "add"} {
			paretoAfterWrite(b, n, mode)
		}
	}
}

func paretoAfterWrite(b *testing.B, n int, mode string) {
	b.Run(fmt.Sprintf("n=%d/%s", n, mode), func(b *testing.B) {
		db := explBenchDB(b, n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pt := explBenchPoint(i%n, 1+i/n)
			if mode == "add" {
				pt = explBenchPoint(n+1+i, 0)
			}
			if err := db.RecordExploration(pt); err != nil {
				b.Fatal(err)
			}
			rows := 0
			err := db.Pareto(icdb.ParetoQuery{}, func(icdb.ParetoPoint) bool {
				rows++
				return rows < 10
			})
			if err != nil || rows == 0 {
				b.Fatal(err, rows)
			}
		}
	})
}

// BenchmarkRecordExplorationWarmCache is the write alone, against three
// warm scopes nobody queries meanwhile: the store upsert plus one queued
// delta per scope, and a fold every explFoldAt writes.
func BenchmarkRecordExplorationWarmCache(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			db := explBenchDB(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := db.RecordExploration(explBenchPoint(i%n, 1+i/n)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

package icdb_test

// The cost contract of the `find … at width` path, as counts: how many
// estimator programs a catalog holds, and that a query allocates the
// same whether it walks N candidates or 2N. Counts repeat exactly on any
// machine; the timings are bench_test.go's business.

import (
	"testing"

	"icdb/internal/genus"
	"icdb/internal/icdb"
)

// synthWithEstimators is newSynthDB plus an estimator pair per synthetic
// implementation, reopened so that derived state and the intern table
// start empty, as after a boot.
func synthWithEstimators(t *testing.T, n int) *icdb.DB {
	t.Helper()
	seeded, err := newSynthDB(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := populateEstimators(seeded, n); err != nil {
		t.Fatal(err)
	}
	db, err := icdb.Open(seeded.Store())
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestInternedProgramsPerDistinctSource: building the estimator cache of
// a 10k-implementation catalog whose 20k+ estimator rows spell three
// distinct expressions compiles exactly three programs, and registering
// an expression already known adds none.
func TestInternedProgramsPerDistinctSource(t *testing.T) {
	const n = 10000
	db := synthWithEstimators(t, n)
	if got := db.InternedPrograms(); got != 0 {
		t.Fatalf("%d program(s) interned before any width query", got)
	}
	// The first width query builds the estimator cache.
	q := icdb.Query{Functions: []genus.Function{genus.FuncADD}, Width: 8, Limit: 1}
	if err := db.Find(q, func(icdb.Candidate) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if got := db.InternedPrograms(); got != len(synthEstimators) {
		t.Fatalf("estimator cache compiled %d program(s), want %d", got, len(synthEstimators))
	}
	if err := db.RegisterEstimator(nameOf(0), "delay", synthEstimators[2]); err != nil {
		t.Fatal(err)
	}
	if got := db.InternedPrograms(); got != len(synthEstimators) {
		t.Fatalf("registering a known source grew the table to %d", got)
	}
}

// TestAtWidthAllocationsIndependentOfCandidates: "find … with area <= X
// at width W order by delay limit 10" allocates O(k) for its answer and
// nothing per candidate — the same count over a catalog and over one
// twice the size — in its ranked, streamed and of-type forms.
func TestAtWidthAllocationsIndependentOfCandidates(t *testing.T) {
	const n = 1500
	maxArea, err := icdb.AttrCmp("area", icdb.CmpLE, 2000)
	if err != nil {
		t.Fatal(err)
	}
	// Built once: the constructors format their source text, and fmt's
	// pooled buffers make that count vary under the race detector.
	streamed := icdb.Query{
		Functions:   []genus.Function{genus.FuncADD},
		Constraints: []icdb.Constraint{maxArea},
		Width:       8,
	}
	ranked := streamed
	ranked.Order, ranked.Limit = icdb.Order{Attr: "delay"}, 10
	ofType := ranked
	ofType.Type = genus.CompAdderSubtractor
	type counts struct{ cands, ranked, streamed, ofType float64 }
	measure := func(n int) counts {
		db := synthWithEstimators(t, n)
		var c counts
		run := func(q icdb.Query, want float64) func() {
			return func() {
				got := 0.0
				if err := db.Find(q, func(icdb.Candidate) bool { got++; return true }); err != nil || (want > 0 && got != want) {
					t.Fatal(err, got)
				}
				c.cands = got
			}
		}
		c.ranked = testing.AllocsPerRun(10, run(ranked, 10))
		c.ofType = testing.AllocsPerRun(10, run(ofType, 10))
		c.streamed = testing.AllocsPerRun(10, run(streamed, 0))
		return c
	}
	small, large := measure(n), measure(2*n)
	if large.cands < 1.8*small.cands || small.cands < 50 {
		t.Fatalf("catalogs yield %v and %v candidates; want the second about twice the first", small.cands, large.cands)
	}
	if small.ranked != large.ranked || small.streamed != large.streamed || small.ofType != large.ofType {
		t.Fatalf("allocations grew with the candidate count: %+v over %v candidates, %+v over %v",
			small, small.cands, large, large.cands)
	}
	t.Logf("allocs/query over %v and %v candidates: ranked %v, of-type %v, streamed %v",
		small.cands, large.cands, small.ranked, small.ofType, small.streamed)
}

package icdb_test

// Posting lists as name-sorted entry slices: the merge intersection
// against the full-scan reference while implementations move between
// lists, the estimator join's build count, and the allocations of the
// whole-catalog walks.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"icdb/internal/genus"
	"icdb/internal/icdb"
	"icdb/internal/relstore"
)

// TestPostingMergeMatchesFullScanReference moves implementations between
// posting lists — re-registrations that change a name's function set
// and component type, direct Store() upserts (some naming a function
// twice) and deletes — in bursts of one
// to three writes (so deltas land on pinned and unpinned snapshots
// alike), and after every burst holds finds of two or three functions,
// with and without a type, at and without a width point, ranked and
// streamed, to the full-scan reference.
func TestPostingMergeMatchesFullScanReference(t *testing.T) {
	const pool = 240 // synthetic names in play; half start unregistered
	db, err := newSynthDB(pool / 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := populateEstimators(db, pool/2); err != nil {
		t.Fatal(err)
	}
	var multi []genus.ComponentType // the types that execute two or more functions
	for _, ct := range genus.AllComponentTypes() {
		if len(genus.Functions(ct)) >= 2 {
			multi = append(multi, ct)
		}
	}
	rng := rand.New(rand.NewSource(50))
	// someOf draws 1..max distinct functions of ct.
	someOf := func(ct genus.ComponentType, lo, hi int) []genus.Function {
		fns := genus.Functions(ct)
		n := min(lo+rng.Intn(hi-lo+1), len(fns))
		var out []genus.Function
		for _, i := range rng.Perm(len(fns))[:n] {
			out = append(out, fns[i])
		}
		return out
	}
	moved := func() icdb.Impl {
		im := implAt(rng.Intn(pool))
		im.Component = multi[rng.Intn(len(multi))]
		im.Functions = someOf(im.Component, 1, 4)
		im.Area, im.Delay = float64(1+rng.Intn(30)), float64(1+rng.Intn(30))
		return im
	}
	orders := []icdb.Order{{}, {Attr: icdb.OrderKeyCost}, {Attr: "delay", Desc: true}, {Attr: "area"}}
	by := map[string]int{}
	queries, rows := 0, 0
	for step := 0; step < 500; step++ {
		for range 1 + rng.Intn(3) {
			var op string
			var err error
			switch rng.Intn(5) {
			case 0, 1:
				op = "RegisterImpl"
				err = db.RegisterImpl(moved())
			case 2:
				op = "direct upsert implementations"
				im := moved()
				row := implRowOf(im)
				if rng.Intn(3) == 0 {
					// A row naming a function twice, which registration
					// refuses: the decode must still put the name on that
					// list once.
					row["functions"] = string(im.Functions[0]) + "," + row["functions"].(string)
				}
				err = db.Store().Upsert(icdb.TableImplementations, row)
			case 3:
				op = "direct delete implementations"
				_, err = db.Store().Delete(icdb.TableImplementations, relstore.Eq("name", nameOf(rng.Intn(pool))))
			case 4:
				op = "RegisterEstimator"
				err = db.RegisterEstimator(nameOf(rng.Intn(pool)), icdb.EstimatorAttrs()[rng.Intn(2)], synthEstimators[rng.Intn(3)])
				if err != nil && strings.Contains(err.Error(), "no matching row") {
					err = nil // the implementation is not registered
				}
			}
			if err != nil {
				t.Fatalf("step %d (%s): %v", step, op, err)
			}
			by[op]++
		}
		ref, err := newFullScan(db)
		if err != nil {
			t.Fatal(err)
		}
		for k := range 4 {
			ct := multi[rng.Intn(len(multi))]
			q := icdb.Query{Functions: someOf(ct, 2, 3), Order: orders[rng.Intn(len(orders))]}
			if k%2 == 0 {
				// Two or three functions some registered implementation
				// executes, so the intersection is not empty by chance.
				for _, i := range rng.Perm(len(ref.impls)) {
					if im := ref.impls[i]; len(im.Functions) >= 2 {
						ct = im.Component
						q.Functions = nil
						for _, j := range rng.Perm(len(im.Functions))[:min(2+rng.Intn(2), len(im.Functions))] {
							q.Functions = append(q.Functions, im.Functions[j])
						}
						break
					}
				}
			}
			switch rng.Intn(4) {
			case 0:
				q.Type = ct
			case 1:
				q.Type = multi[rng.Intn(len(multi))]
			}
			if rng.Intn(2) == 0 {
				q.Width = 1 + rng.Intn(64)
			}
			if rng.Intn(2) == 0 {
				q.Limit = 1 + rng.Intn(8)
			}
			want, err := ref.query(q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := db.FindAll(q)
			if err != nil {
				t.Fatalf("step %d: %+v: %v", step, q, err)
			}
			if q.Order.Attr == "" && q.Limit == 0 {
				byName := func(cs []icdb.Candidate) {
					sort.Slice(cs, func(i, j int) bool { return cs[i].Impl.Name < cs[j].Impl.Name })
				}
				byName(got)
				byName(want)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: %+v:\n engine    %v\n full scan %v", step, q, cands(got), cands(want))
			}
			queries++
			rows += len(got)
		}
	}
	if rows == 0 {
		t.Fatal("no query found a candidate: the differential compared empty answers only")
	}
	t.Logf("%d multi-function queries, %d candidates, agree with the full scan after %v", queries, rows, by)
}

// TestPostingJoinOncePerListAndPart pins the estimator join's cost
// contract: a width query joins each posting list it walks to the
// estimators once per estimators part, with one by-name lookup per
// entry, and a warm width query looks nothing up by name. A width-free
// query never joins (nor reads the estimators). A write to the
// estimators, or a registration that touches the list, makes the next
// width query join that list again; a registration elsewhere does not.
func TestPostingJoinOncePerListAndPart(t *testing.T) {
	db := synthWithEstimators(t, 2000)
	fn, other := genus.FuncADD, genus.FuncSUB
	listLen := func(fns ...genus.Function) uint64 {
		cs, err := db.FindAll(icdb.Query{Functions: fns})
		if err != nil {
			t.Fatal(err)
		}
		return uint64(len(cs))
	}
	nFn := listLen(fn)
	if nFn < 100 {
		t.Fatalf("%s lists %d implementations; want a list worth joining", fn, nFn)
	}
	if b, l := db.EstimatorJoins(); b != 0 || l != 0 || db.CacheRebuilds()[icdb.TableEstimators] != 0 {
		t.Fatalf("width-free queries joined %d list(s) (%d lookups), built estimators %d time(s)",
			b, l, db.CacheRebuilds()[icdb.TableEstimators])
	}
	maxArea, err := icdb.AttrCmp("area", icdb.CmpLE, 3000)
	if err != nil {
		t.Fatal(err)
	}
	q := icdb.Query{Functions: []genus.Function{fn}, Width: 16, Order: icdb.Order{Attr: "delay"}, Limit: 10}
	expect := func(when string, builds, lookups uint64, qs ...icdb.Query) {
		t.Helper()
		for _, q := range qs {
			if _, err := db.FindAll(q); err != nil {
				t.Fatal(err)
			}
		}
		if b, l := db.EstimatorJoins(); b != builds || l != lookups {
			t.Fatalf("%s: %d join(s) built with %d lookup(s), want %d and %d", when, b, l, builds, lookups)
		}
	}
	expect("first width query", 1, nFn, q)
	warm := q
	warm.Width, warm.Constraints, warm.Limit = 40, []icdb.Constraint{maxArea}, 0
	expect("warm width queries on the same list", 1, nFn, q, q, warm, icdb.Query{Functions: q.Functions, Width: 3})
	// A two-function find walks the shorter list; a list joined already
	// is not joined again.
	pair := icdb.Query{Functions: []genus.Function{fn, other}, Width: 8}
	nDrive := min(nFn, listLen(other))
	if nDrive == nFn {
		expect("two-function query driven by the joined list", 1, nFn, pair)
	} else {
		expect("two-function query driven by the other list", 2, nFn+nDrive, pair, pair)
	}
	b0, l0 := db.EstimatorJoins()
	if err := db.RegisterEstimator(nameOf(1), "delay", "delay * width + 1"); err != nil {
		t.Fatal(err)
	}
	expect("after an estimator write", b0+1, l0+nFn, q, q)
	// A registration off the list leaves it (and its join) shared.
	off := implAt(0)
	off.Name, off.Component, off.Functions = "off_list", genus.CompRegister, []genus.Function{genus.FuncSTORAGE}
	off.Source = fmt.Sprintf(srcTemplate, off.Name)
	if err := db.RegisterImpl(off); err != nil {
		t.Fatal(err)
	}
	expect("after a registration off the list", b0+1, l0+nFn, q)
	on := off
	on.Name, on.Component, on.Functions = "on_list", genus.CompAdderSubtractor, []genus.Function{fn}
	on.Source = fmt.Sprintf(srcTemplate, on.Name)
	if err := db.RegisterImpl(on); err != nil {
		t.Fatal(err)
	}
	expect("after a registration onto the list", b0+2, l0+2*nFn+1, q, q)
}

// TestPostingJoinConcurrentReaders: width queries racing onto a list no
// query has joined yet build its join once between them, and all read
// the same answer.
func TestPostingJoinConcurrentReaders(t *testing.T) {
	db := synthWithEstimators(t, 2000)
	q := icdb.Query{Functions: []genus.Function{genus.FuncADD}, Width: 24, Order: icdb.Order{Attr: "area"}, Limit: 5}
	for round := range 3 {
		// A new estimators part: every list must be joined again.
		if err := db.RegisterEstimator(nameOf(round), "area", synthEstimators[round]); err != nil {
			t.Fatal(err)
		}
		b0, _ := db.EstimatorJoins()
		const readers = 8
		answers := make([][]icdb.Candidate, readers)
		var wg sync.WaitGroup
		for i := range readers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range 10 {
					got, err := db.FindAll(q)
					if err != nil {
						t.Error(err)
						return
					}
					answers[i] = got
				}
			}()
		}
		wg.Wait()
		if b, _ := db.EstimatorJoins(); b != b0+1 {
			t.Fatalf("round %d: %d readers built %d join(s) of one list, want 1", round, readers, b-b0)
		}
		for i := range answers {
			if !reflect.DeepEqual(answers[i], answers[0]) {
				t.Fatalf("round %d: reader %d saw %v, reader 0 %v", round, i, cands(answers[i]), cands(answers[0]))
			}
		}
	}
}

// TestPostingScanAllocations: the whole-catalog walks — ImplsScan in
// insertion order, and a streamed Find over every component type's
// list — allocate O(1) in all over 10k implementations, nothing per row.
func TestPostingScanAllocations(t *testing.T) {
	db, err := newSynthDB(10_000)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	scan := func() {
		n = 0
		if err := db.ImplsScan(func(*icdb.Impl) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
	}
	find := func() {
		n = 0
		if err := db.Find(icdb.Query{}, func(icdb.Candidate) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name  string
		run   func()
		limit float64
	}{{"ImplsScan", scan, 2}, {"streamed Find", find, 16}} {
		c.run() // builds the implementations part
		if allocs := testing.AllocsPerRun(10, c.run); allocs > c.limit || n < 10_000 {
			t.Errorf("%s over %d implementations: %v allocation(s), want at most %v", c.name, n, allocs, c.limit)
		}
	}
}

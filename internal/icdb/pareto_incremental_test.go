package icdb

// The frontier cache against an oracle. Every answer Pareto gives from
// its incrementally maintained scopes is compared with a recompute from
// the relation itself (Explorations reads the store, never the cache)
// through the O(n²) dominance reference.

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"

	"icdb/internal/genus"
	"icdb/internal/relstore"
)

// oracleAnswer recomputes one frontier query from the relation: filter,
// sort into sweep order, brute-force the mask, and for each dominated
// point name the dominator the engine documents — among the frontier
// points that dominate it, the one with the largest area, first in sweep
// order among exact duplicates.
func oracleAnswer(t *testing.T, db *DB, q ParetoQuery, keep func(*Exploration) bool) []ParetoPoint {
	t.Helper()
	all, err := db.Explorations()
	if err != nil {
		t.Fatalf("Explorations: %v", err)
	}
	var pts []Exploration
	for i := range all {
		e := &all[i]
		if q.Component != "" && e.Component != q.Component {
			continue
		}
		if q.Component == "" && q.Generator != "" && e.Generator != q.Generator {
			continue
		}
		if keep != nil && !keep(e) {
			continue
		}
		pts = append(pts, *e)
	}
	sort.Slice(pts, func(i, j int) bool { return pointLess(&pts[i], &pts[j]) })
	mask := bruteForceFrontier(pts)
	if err := CheckFrontier(pts, mask); err != nil {
		t.Fatalf("oracle frontier: %v", err)
	}
	wa, wd, err := db.RankWeights()
	if err != nil {
		t.Fatal(err)
	}
	var out []ParetoPoint
	for i := range pts {
		p := ParetoPoint{Exploration: pts[i], Cost: pts[i].Area*wa + pts[i].Delay*wd}
		if !mask[i] {
			if !q.Dominated {
				continue
			}
			dom := -1
			for j := range pts {
				if mask[j] && dominates(&pts[j], &pts[i]) && (dom < 0 || pts[j].Area > pts[dom].Area) {
					dom = j
				}
			}
			p.Dominated = true
			p.DominatedBy = pts[dom].PointID()
			p.DArea = pts[i].Area - pts[dom].Area
			p.DDelay = pts[i].Delay - pts[dom].Delay
		}
		out = append(out, p)
	}
	return out
}

// checkAgainstOracle runs {whole, of type, of generator} × {plain,
// constrained, dominated} and compares each streamed answer — points,
// order, dominator ids, margins — with the oracle's.
func checkAgainstOracle(t *testing.T, db *DB, when string) {
	t.Helper()
	const areaCap = 6.0
	for _, scope := range []ParetoQuery{
		{},
		{Component: genus.CompCounter},
		{Component: genus.CompRegister},
		{Generator: "ga"},
		{Generator: "gen_cnt"},
		{Generator: "never_recorded"},
	} {
		for _, mode := range []string{"plain", "constrained", "dominated"} {
			q := scope
			var keep func(*Exploration) bool
			switch mode {
			case "constrained":
				q.Constraints = []Constraint{mustAttrCmp(t, "area", CmpLE, areaCap)}
				q.Dominated = true
				keep = func(e *Exploration) bool { return e.Area <= areaCap }
			case "dominated":
				q.Dominated = true
			}
			var got []ParetoPoint
			if err := db.Pareto(q, func(p ParetoPoint) bool { got = append(got, p); return true }); err != nil {
				t.Fatalf("%s: Pareto(%+v): %v", when, scope, err)
			}
			want := oracleAnswer(t, db, q, keep)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: scope %+v %s: cache and recompute disagree\n got %d point(s): %+v\nwant %d point(s): %+v",
					when, scope, mode, len(got), got, len(want), want)
			}
		}
	}
}

// TestParetoIncrementalDifferential drives a seeded random stream of
// every kind of write that can reach — or bypass — the frontier cache
// and checks all nine query shapes after each step. Odd seeds skip the
// check on a random half of the steps instead, so writes of different
// kinds also pile up on the cache with no query (and so no rebuild) in
// between.
func TestParetoIncrementalDifferential(t *testing.T) {
	comps := []genus.ComponentType{genus.CompCounter, genus.CompRegister, genus.CompALU}
	gens := []string{"ga", "gb", "gc"}
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			db := newParetoDB(t)
			// Small grid: equal areas, equal delays and exact duplicates
			// are routine, and re-records often land on a value the point
			// (or a neighbour) held before.
			val := func() float64 { return float64(rng.Intn(24)) / 2 }
			var known []Exploration // points recorded through the DB, for re-records
			record := func(e Exploration) {
				if err := db.RecordExploration(e); err != nil {
					t.Fatalf("RecordExploration(%+v): %v", e, err)
				}
			}
			for step := 0; step < 260; step++ {
				var what string
				switch op := rng.Intn(20); {
				case op < 6 || len(known) == 0:
					what = "record new"
					e := Exploration{
						Generator: gens[rng.Intn(len(gens))],
						Bindings:  fmt.Sprintf("p=%d", step),
						Component: comps[rng.Intn(len(comps))],
						Width:     1 + rng.Intn(32),
						Area:      val(), Delay: val(),
					}
					record(e)
					known = append(known, e)
				case op < 8:
					what = "re-record value-equal"
					record(known[rng.Intn(len(known))])
				case op < 12:
					what = "re-record changed"
					e := &known[rng.Intn(len(known))]
					e.Area, e.Delay = val(), val()
					if rng.Intn(3) == 0 {
						e.Component = comps[rng.Intn(len(comps))]
					}
					record(*e)
				case op == 12:
					what = "generate"
					if _, _, err := db.Generate("gen_cnt", map[string]int{"size": 1 + rng.Intn(24)}); err != nil {
						t.Fatal(err)
					}
				case op == 13:
					what = "estimate"
					if _, _, _, err := db.EstimateImpl("cnt_up", 1+rng.Intn(32)); err != nil {
						t.Fatal(err)
					}
				case op == 14:
					what = "explore"
					lo := 1 + rng.Intn(16)
					if _, err := db.Explore("gen_cnt", lo, lo+rng.Intn(12), 1+rng.Intn(3), nil, false); err != nil {
						t.Fatal(err)
					}
				case op == 15:
					what = "register impl (other relation)"
					if err := db.RegisterImpl(testImpl(fmt.Sprintf("side_%d", step))); err != nil {
						t.Fatal(err)
					}
				case op == 16:
					what = "direct store upsert"
					e := Exploration{Generator: "gb", Bindings: fmt.Sprintf("direct=%d", rng.Intn(8)),
						Component: genus.CompCounter, Width: 4, Area: val(), Delay: val()}
					if err := db.Store().Upsert(TableExplorations, explRow(e)); err != nil {
						t.Fatal(err)
					}
				case op == 17:
					what = "direct store rewrite"
					rows, err := db.Store().Select(TableExplorations, relstore.Eq("generator", "ga"))
					if err != nil {
						t.Fatal(err)
					}
					for _, r := range rows {
						r["area"] = asFloat(r["area"]) + 0.5
						if err := db.Store().Upsert(TableExplorations, r); err != nil {
							t.Fatal(err)
						}
					}
					known = nil // their values moved behind our back
				case op == 18:
					what = "direct store delete"
					if _, err := db.Store().Delete(TableExplorations, relstore.Eq("generator", gens[rng.Intn(len(gens))])); err != nil {
						t.Fatal(err)
					}
					known = nil
				default:
					if rng.Intn(2) == 0 {
						what = "invalidate caches"
						db.InvalidateCaches()
						break
					}
					what = "direct store clear"
					if _, err := db.Store().Delete(TableExplorations, nil); err != nil {
						t.Fatal(err)
					}
					known = nil
				}
				if seed%2 == 0 || rng.Intn(2) == 0 {
					checkAgainstOracle(t, db, fmt.Sprintf("step %d (%s)", step, what))
				}
			}
			info := db.ParetoCacheInfo()
			if info.Hits == 0 || info.Deltas == 0 || info.RebuildsCold == 0 || info.RebuildsForeign == 0 {
				t.Errorf("the stream did not exercise every cache path: %+v", info)
			}
		})
	}
}

// TestParetoIncrementalFoldsLongPendingList: a scope nobody queries for
// more than explFoldAt writes is folded by a writer, and the answer
// after is still the oracle's — including points re-recorded several
// times inside one fold batch, back onto values they held before
// (telling those versions apart takes the width and component, which
// the sweep order ignores).
func TestParetoIncrementalFoldsLongPendingList(t *testing.T) {
	db := newParetoDB(t)
	rng := rand.New(rand.NewSource(9))
	checkAgainstOracle(t, db, "empty") // every scope cached, empty
	for i := 0; i < 2*explFoldAt+100; i++ {
		if err := db.RecordExploration(Exploration{
			Generator: "ga", Bindings: fmt.Sprintf("p=%d", rng.Intn(40)),
			Component: []genus.ComponentType{genus.CompCounter, genus.CompRegister}[rng.Intn(2)],
			Width:     1 + rng.Intn(4),
			Area:      float64(rng.Intn(3)), Delay: float64(rng.Intn(3)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	before := db.ParetoCacheInfo()
	checkAgainstOracle(t, db, "after long unqueried run")
	after := db.ParetoCacheInfo()
	if before.Deltas == 0 || after.RebuildsCold != before.RebuildsCold || after.RebuildsForeign != before.RebuildsForeign {
		t.Errorf("long pending run fell back to a rebuild: before %+v, after %+v", before, after)
	}
}

// TestParetoIncrementalFrontierOnly: a tool that asks nothing but "what
// is the frontier now" between its writes is answered from the scope's
// frontier, extended query after query by the adds recorded since, with
// no fold — until a changed re-record (a point leaving its old place)
// forces one. Every answer is the oracle's, and a frontier slice handed
// out earlier is never touched by a later one.
func TestParetoIncrementalFrontierOnly(t *testing.T) {
	db := newParetoDB(t)
	rng := rand.New(rand.NewSource(5))
	scopes := []ParetoQuery{{}, {Component: genus.CompCounter}, {Generator: "ga"}}
	plain := func(when string) [][]ParetoPoint {
		t.Helper()
		var all [][]ParetoPoint
		for _, q := range scopes {
			got, err := db.ParetoFrontier(q)
			if err != nil {
				t.Fatal(err)
			}
			if want := oracleAnswer(t, db, q, nil); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: scope %+v: frontier and recompute disagree\n got %+v\nwant %+v", when, q, got, want)
			}
			all = append(all, got)
		}
		return all
	}
	plain("empty") // caches the three scopes
	var known []Exploration
	var held, heldWas []*Exploration // a frontier slice as a streaming reader holds it
	unfolded := 0
	for step := 0; step < 400; step++ {
		// Values shrink over the run, so new points keep reaching the
		// frontier and pushing older ones off it.
		val := func() float64 { return float64(rng.Intn(40)+400-step) / 2 }
		what := "record new"
		if len(known) > 0 && rng.Intn(8) == 0 {
			what = "re-record changed"
			e := &known[rng.Intn(len(known))]
			e.Area, e.Delay = val(), val()
			if err := db.RecordExploration(*e); err != nil {
				t.Fatal(err)
			}
		} else {
			e := Exploration{
				Generator: []string{"ga", "gb"}[rng.Intn(2)], Bindings: fmt.Sprintf("p=%d", step),
				Component: []genus.ComponentType{genus.CompCounter, genus.CompRegister}[rng.Intn(2)],
				Width:     1 + rng.Intn(32), Area: val(), Delay: val(),
			}
			if err := db.RecordExploration(e); err != nil {
				t.Fatal(err)
			}
			known = append(known, e)
		}
		if rng.Intn(3) > 0 { // let adds pile up now and then
			plain(fmt.Sprintf("step %d (%s)", step, what))
		}
		db.pmu.Lock()
		if sc := db.expl.scopes[scopeKey{}]; sc != nil && sc.frontAdds > 0 {
			unfolded++
			if held == nil {
				held, heldWas = sc.front, append([]*Exploration(nil), sc.front...)
			}
		}
		db.pmu.Unlock()
	}
	if unfolded == 0 {
		t.Error("no frontier query was ever answered by extending the previous answer: the run folded every time")
	}
	if !reflect.DeepEqual(held, heldWas) {
		t.Error("a frontier slice handed out early in the run changed under later writes")
	}
	if info := db.ParetoCacheInfo(); info.RebuildsForeign != 0 || info.RebuildsCold != uint64(len(scopes)) {
		t.Errorf("the run rebuilt scopes it should have maintained: %+v", info)
	}
	checkAgainstOracle(t, db, "end")
}

// TestParetoIncrementalInvalidateCaches is the regression test for the
// documented escape hatch: after a write behind the DB's back,
// InvalidateCaches must leave nothing of the frontier cache behind.
func TestParetoIncrementalInvalidateCaches(t *testing.T) {
	db := newParetoDB(t)
	recordCloud(t, db, genus.CompCounter, "ga", []Exploration{{Area: 5, Delay: 5}, {Area: 6, Delay: 6}})
	checkAgainstOracle(t, db, "warm")
	if db.ParetoCacheInfo().Scopes == 0 {
		t.Fatal("no scope cached after a round of queries")
	}
	rogue := Exploration{Generator: "ga", Bindings: "rogue", Component: genus.CompCounter, Width: 8, Area: 1, Delay: 1}
	if err := db.Store().Upsert(TableExplorations, explRow(rogue)); err != nil {
		t.Fatal(err)
	}
	db.InvalidateCaches()
	if info := db.ParetoCacheInfo(); info.Scopes != 0 {
		t.Fatalf("InvalidateCaches left %d frontier scope(s) cached", info.Scopes)
	}
	front, err := db.ParetoFrontier(ParetoQuery{Generator: "ga"})
	if err != nil {
		t.Fatal(err)
	}
	if len(front) != 1 || front[0].PointID() != "ga[rogue]" {
		t.Fatalf("frontier after direct write + InvalidateCaches = %+v, want the rogue point alone", front)
	}
	checkAgainstOracle(t, db, "after invalidate")
}

// TestParetoIncrementalConcurrent: two writers and two readers under
// -race. One reader parks inside its visitor while the writers run to
// completion and must then finish over exactly the slice it started on;
// the other keeps querying and checks each answer is a valid frontier
// of itself. When the writers are done the cache must agree with the
// oracle again — and must have got there by deltas alone: writers racing
// each other, or a query arriving between a write and its delta, are no
// reason to rebuild a scope.
func TestParetoIncrementalConcurrent(t *testing.T) {
	db := newParetoDB(t)
	base := make([]Exploration, 64)
	for i := range base {
		base[i] = Exploration{Area: float64(i % 8), Delay: float64(8 - i%8 + i/8)}
	}
	recordCloud(t, db, genus.CompCounter, "ga", base)
	var want []ParetoPoint
	if err := db.Pareto(ParetoQuery{Dominated: true}, func(p ParetoPoint) bool { want = append(want, p); return true }); err != nil {
		t.Fatal(err)
	}

	parked := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	var got []ParetoPoint
	wg.Add(1)
	go func() { // the parked reader
		defer wg.Done()
		err := db.Pareto(ParetoQuery{Dominated: true}, func(p ParetoPoint) bool {
			got = append(got, p)
			if len(got) == 3 {
				close(parked)
				<-release
			}
			return true
		})
		if err != nil {
			t.Error(err)
		}
	}()
	<-parked

	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() { // the busy reader
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var pts []Exploration
			var mask []bool
			err := db.Pareto(ParetoQuery{Component: genus.CompCounter, Dominated: true}, func(p ParetoPoint) bool {
				pts, mask = append(pts, p.Exploration), append(mask, !p.Dominated)
				return true
			})
			if err == nil {
				err = CheckFrontier(pts, mask)
			}
			if err != nil {
				t.Error(err)
				return
			}
			// The frontier-only path, which extends its previous answer.
			front, err := db.ParetoFrontier(ParetoQuery{})
			if err != nil {
				t.Error(err)
				return
			}
			for i := range front {
				for j := range front {
					if dominates(&front[i].Exploration, &front[j].Exploration) {
						t.Errorf("frontier answer holds %s and %s, which it dominates", front[i].PointID(), front[j].PointID())
						return
					}
				}
			}
		}
	}()
	var writers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 300; i++ {
				// Both writers re-record the shared base points too, so
				// replace deltas from different goroutines interleave.
				e := Exploration{Generator: "ga", Bindings: fmt.Sprintf("p=%d", rng.Intn(96)),
					Component: genus.CompCounter, Width: 8,
					Area: float64(rng.Intn(10)), Delay: float64(rng.Intn(10))}
				if err := db.RecordExploration(e); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	close(release)
	wg.Wait()
	// (A scope first queried under the write storm may be built cold more
	// than once — a build that a writer overtakes is served uncached —
	// but a cached scope is never thrown away.)
	if info := db.ParetoCacheInfo(); info.RebuildsForeign != 0 {
		t.Errorf("concurrent writers and readers made the cache rebuild: %+v", info)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parked reader saw writes made after it started:\n got %d point(s)\nwant %d point(s)", len(got), len(want))
	}
	checkAgainstOracle(t, db, "after concurrent writers")
}

// TestParetoIncrementalLazyDurableOpen: the explorations relation of a
// lazily opened durable catalog hydrates with journal records whose
// replay was deferred; the first frontier query after the open — and
// the incremental updates on top of it — must see them.
func TestParetoIncrementalLazyDurableOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cat.snap")
	d, err := relstore.OpenDurable(path, relstore.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(d.Store)
	if err != nil {
		t.Fatal(err)
	}
	recordCloud(t, db, genus.CompCounter, "ga", []Exploration{{Area: 5, Delay: 5}, {Area: 6, Delay: 4}, {Area: 7, Delay: 7}})
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	// The uncovered tail: a new frontier corner, a moved point, a delete.
	if err := db.RecordExploration(Exploration{Generator: "ga", Bindings: "late", Component: genus.CompCounter, Width: 8, Area: 1, Delay: 9}); err != nil {
		t.Fatal(err)
	}
	if err := db.RecordExploration(Exploration{Generator: "ga", Bindings: "p=2", Component: genus.CompCounter, Width: 8, Area: 2, Delay: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Delete(TableExplorations, relstore.And(relstore.Eq("generator", "ga"), relstore.Eq("bindings", "p=0"))); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	lz, err := relstore.OpenDurable(path, relstore.DurableOptions{Open: relstore.OpenLazy})
	if err != nil {
		t.Fatal(err)
	}
	defer lz.Close()
	if n := lz.Recovery().Deferred; n != 3 {
		t.Fatalf("recovery deferred %d record(s), want the 3 explorations records", n)
	}
	db2, err := Open(lz.Store)
	if err != nil {
		t.Fatal(err)
	}
	if !pending(lz.Store, TableExplorations) {
		t.Fatal("explorations hydrated before any frontier query")
	}
	front, err := db2.ParetoFrontier(ParetoQuery{Generator: "ga"})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, p := range front {
		ids = append(ids, p.PointID())
	}
	if want := []string{"ga[late]", "ga[p=2]"}; !reflect.DeepEqual(ids, want) {
		t.Fatalf("first frontier after lazy open = %v, want %v", ids, want)
	}
	checkAgainstOracle(t, db2, "after hydration")
	if err := db2.RecordExploration(Exploration{Generator: "ga", Bindings: "post", Component: genus.CompCounter, Width: 8, Area: 0.5, Delay: 0.5}); err != nil {
		t.Fatal(err)
	}
	checkAgainstOracle(t, db2, "after a write on the hydrated cache")
	if info := db2.ParetoCacheInfo(); info.Deltas != 1 {
		t.Errorf("write after hydration was not applied as a delta: %+v", info)
	}
}

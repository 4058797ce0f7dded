package icdb

import (
	"fmt"
	"math/rand"
	"testing"

	"icdb/internal/genus"
	"icdb/internal/relstore"
)

// newParetoDB opens a fresh in-memory DB for frontier tests.
func newParetoDB(t *testing.T) *DB {
	t.Helper()
	db, err := Open(relstore.New())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return db
}

// recordCloud registers a point cloud under one component type, naming
// points gen/p<i> so identities stay distinct even when values collide.
func recordCloud(t *testing.T, db *DB, ct genus.ComponentType, gen string, pts []Exploration) {
	t.Helper()
	for i := range pts {
		pts[i].Generator = gen
		pts[i].Bindings = fmt.Sprintf("p=%d", i)
		pts[i].Component = ct
		if pts[i].Width == 0 {
			pts[i].Width = 8
		}
		if err := db.RecordExploration(pts[i]); err != nil {
			t.Fatalf("RecordExploration(%d): %v", i, err)
		}
	}
}

// frontierSets runs a Pareto query with dominated reporting and splits
// the streamed answer.
func frontierSets(t *testing.T, db *DB, q ParetoQuery) (frontier, dominated []ParetoPoint) {
	t.Helper()
	q.Dominated = true
	err := db.Pareto(q, func(p ParetoPoint) bool {
		if p.Dominated {
			dominated = append(dominated, p)
		} else {
			frontier = append(frontier, p)
		}
		return true
	})
	if err != nil {
		t.Fatalf("Pareto: %v", err)
	}
	return frontier, dominated
}

// TestParetoPropertyRandomClouds is the acceptance property: across 20+
// seeded random catalogs, the streamed frontier matches the O(n²)
// brute-force dominance reference exactly — every returned point is
// non-dominated, every omitted point is dominated by a returned one,
// and every dominated point's explanation names a frontier point that
// actually dominates it with the claimed margins.
func TestParetoPropertyRandomClouds(t *testing.T) {
	for seed := int64(0); seed < 24; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			n := 5 + rng.Intn(200)
			// Quantize onto a small grid so value ties — equal areas,
			// equal delays, exact duplicates — occur routinely.
			grid := float64(2 + rng.Intn(12))
			pts := make([]Exploration, n)
			for i := range pts {
				pts[i] = Exploration{
					Width: 1 + rng.Intn(64),
					Area:  float64(rng.Intn(int(grid)*10)) / grid,
					Delay: float64(rng.Intn(int(grid)*10)) / grid,
				}
			}
			db := newParetoDB(t)
			recordCloud(t, db, genus.CompCounter, "cloud", pts)

			q := ParetoQuery{Generator: "cloud"}
			frontier, dominated := frontierSets(t, db, q)

			// Reconstruct the point set the engine saw and re-derive the
			// frontier by brute force.
			var streamed []Exploration
			mask := make([]bool, 0, n)
			for _, p := range frontier {
				streamed = append(streamed, p.Exploration)
				mask = append(mask, true)
			}
			for _, p := range dominated {
				streamed = append(streamed, p.Exploration)
				mask = append(mask, false)
			}
			if len(streamed) != n {
				t.Fatalf("streamed %d points, recorded %d", len(streamed), n)
			}
			if err := CheckFrontier(streamed, mask); err != nil {
				t.Fatal(err)
			}
			brute := bruteForceFrontier(streamed)
			for i := range brute {
				if brute[i] != mask[i] {
					t.Fatalf("point %s: sweep says frontier=%v, brute force says %v",
						streamed[i].PointID(), mask[i], brute[i])
				}
			}
			// Explanations: the named dominator must exist on the frontier
			// and actually dominate with the claimed non-negative margins.
			onFrontier := make(map[string]Exploration, len(frontier))
			for _, p := range frontier {
				onFrontier[p.PointID()] = p.Exploration
			}
			for _, p := range dominated {
				dom, ok := onFrontier[p.DominatedBy]
				if !ok {
					t.Fatalf("dominated point %s blames %q, which is not on the frontier",
						p.PointID(), p.DominatedBy)
				}
				if !dominates(&dom, &p.Exploration) {
					t.Fatalf("claimed dominator %s does not dominate %s", p.DominatedBy, p.PointID())
				}
				if p.DArea != p.Area-dom.Area || p.DDelay != p.Delay-dom.Delay {
					t.Fatalf("point %s margins (%g,%g) do not match dominator %s",
						p.PointID(), p.DArea, p.DDelay, p.DominatedBy)
				}
				if p.DArea < 0 || p.DDelay < 0 || (p.DArea == 0 && p.DDelay == 0) {
					t.Fatalf("point %s has non-dominating margins (%g,%g)", p.PointID(), p.DArea, p.DDelay)
				}
			}
		})
	}
}

// TestParetoDegenerateClouds pins the edge shapes dominance definitions
// disagree on: a single point, all-equal points (nothing dominates an
// exact duplicate, so all are frontier), and ties on one axis (equal
// area: only the min-delay points survive; equal delay: only the
// min-area points survive).
func TestParetoDegenerateClouds(t *testing.T) {
	cases := []struct {
		name         string
		pts          []Exploration
		wantFrontier int
	}{
		{"single point", []Exploration{{Area: 3, Delay: 4}}, 1},
		{"all equal", []Exploration{
			{Area: 2, Delay: 2}, {Area: 2, Delay: 2}, {Area: 2, Delay: 2},
		}, 3},
		{"tie on area axis", []Exploration{
			{Area: 5, Delay: 1}, {Area: 5, Delay: 2}, {Area: 5, Delay: 3},
		}, 1},
		{"tie on delay axis", []Exploration{
			{Area: 1, Delay: 5}, {Area: 2, Delay: 5}, {Area: 3, Delay: 5},
		}, 1},
		{"duplicate frontier corner", []Exploration{
			{Area: 1, Delay: 9}, {Area: 1, Delay: 9}, {Area: 9, Delay: 1}, {Area: 5, Delay: 5},
		}, 4},
		{"staircase", []Exploration{
			{Area: 1, Delay: 4}, {Area: 2, Delay: 3}, {Area: 3, Delay: 2}, {Area: 4, Delay: 1},
		}, 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			db := newParetoDB(t)
			recordCloud(t, db, genus.CompCounter, "edge", c.pts)
			frontier, dominated := frontierSets(t, db, ParetoQuery{Generator: "edge"})
			if len(frontier) != c.wantFrontier {
				t.Fatalf("frontier has %d points, want %d (frontier %v)", len(frontier), c.wantFrontier, frontier)
			}
			if got := len(frontier) + len(dominated); got != len(c.pts) {
				t.Fatalf("streamed %d points, recorded %d", got, len(c.pts))
			}
			var all []Exploration
			mask := make([]bool, 0, len(c.pts))
			for _, p := range frontier {
				all, mask = append(all, p.Exploration), append(mask, true)
			}
			for _, p := range dominated {
				all, mask = append(all, p.Exploration), append(mask, false)
			}
			if err := CheckFrontier(all, mask); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestParetoStreamOrderAndEarlyStop pins the visitor contract: points
// arrive in ascending (area, delay, identity) order and a false return
// stops the stream.
func TestParetoStreamOrderAndEarlyStop(t *testing.T) {
	db := newParetoDB(t)
	recordCloud(t, db, genus.CompCounter, "ord", []Exploration{
		{Area: 9, Delay: 1}, {Area: 1, Delay: 9}, {Area: 5, Delay: 5}, {Area: 5, Delay: 6},
	})
	var seen []ParetoPoint
	err := db.Pareto(ParetoQuery{Generator: "ord", Dominated: true}, func(p ParetoPoint) bool {
		seen = append(seen, p)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(seen); i++ {
		a, b := &seen[i-1].Exploration, &seen[i].Exploration
		if !pointLess(a, b) {
			t.Fatalf("stream out of order at %d: %v then %v", i, a, b)
		}
	}
	n := 0
	err = db.Pareto(ParetoQuery{Generator: "ord"}, func(ParetoPoint) bool {
		n++
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("visitor returning false yielded %d points, want 1", n)
	}
}

// TestParetoConstraintsReshapeFrontier asserts that constraints filter
// before dominance: excluding the global frontier promotes the best
// surviving points instead of leaving the constrained answer empty.
func TestParetoConstraintsReshapeFrontier(t *testing.T) {
	db := newParetoDB(t)
	recordCloud(t, db, genus.CompCounter, "con", []Exploration{
		{Area: 1, Delay: 1, Width: 4},  // global frontier, filtered out below
		{Area: 2, Delay: 3, Width: 8},  // frontier of the width-8 subspace
		{Area: 3, Delay: 2, Width: 8},  // frontier of the width-8 subspace
		{Area: 4, Delay: 4, Width: 8},  // dominated in the subspace
		{Area: 9, Delay: 9, Width: 16}, // filtered out
	})
	cs, err := AttrCmp("width_min", CmpEQ, 8)
	if err != nil {
		t.Fatal(err)
	}
	frontier, dominated := frontierSets(t, db, ParetoQuery{Generator: "con", Constraints: []Constraint{cs}})
	if len(frontier) != 2 || len(dominated) != 1 {
		t.Fatalf("constrained query: %d frontier + %d dominated, want 2 + 1", len(frontier), len(dominated))
	}
	for _, p := range frontier {
		if p.Width != 8 {
			t.Fatalf("constraint leaked width-%d point %s", p.Width, p.PointID())
		}
	}
	if dominated[0].Area != 4 {
		t.Fatalf("dominated point is %v, want the (4,4) point", dominated[0].Exploration)
	}
}

// TestParetoByComponentMergesSpaces asserts the component-keyed query
// unions every generator's points for that type (served from the
// component secondary index) and excludes other types.
func TestParetoByComponentMergesSpaces(t *testing.T) {
	db := newParetoDB(t)
	recordCloud(t, db, genus.CompCounter, "g1", []Exploration{{Area: 1, Delay: 5}, {Area: 5, Delay: 4}})
	recordCloud(t, db, genus.CompCounter, "g2", []Exploration{{Area: 2, Delay: 2}})
	recordCloud(t, db, genus.CompRegister, "g3", []Exploration{{Area: 0.1, Delay: 0.1}})
	frontier, dominated := frontierSets(t, db, ParetoQuery{Component: genus.CompCounter})
	if len(frontier)+len(dominated) != 3 {
		t.Fatalf("component query saw %d points, want 3", len(frontier)+len(dominated))
	}
	for _, p := range append(frontier, dominated...) {
		if p.Component != genus.CompCounter {
			t.Fatalf("component query leaked %s point %s", p.Component, p.PointID())
		}
	}
	// (1,5) and (2,2) are non-dominated; (5,4) is dominated by (2,2).
	if len(frontier) != 2 || len(dominated) != 1 || dominated[0].DominatedBy != "g2[p=0]" {
		t.Fatalf("frontier %v dominated %v", frontier, dominated)
	}
}

// TestParetoSnapshotRoundTrip asserts exploration rows survive snapshot
// persistence under both open modes, and the frontier answer is
// identical after reload.
func TestParetoSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db := newParetoDB(t)
	recordCloud(t, db, genus.CompCounter, "persist", []Exploration{
		{Area: 1, Delay: 3}, {Area: 2, Delay: 2}, {Area: 3, Delay: 1}, {Area: 3, Delay: 3},
	})
	want, err := db.ParetoFrontier(ParetoQuery{Generator: "persist"})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Store().SaveSnapshot(dir + "/cat.snap"); err != nil {
		t.Fatalf("save: %v", err)
	}
	for _, mode := range []relstore.OpenMode{relstore.OpenEager, relstore.OpenLazy} {
		path := mode.String()
		st, err := relstore.OpenSnapshot(dir+"/cat.snap", relstore.SnapshotOptions{Mode: mode})
		if err != nil {
			t.Fatalf("open %s: %v", path, err)
		}
		db2, err := Open(st)
		if err != nil {
			t.Fatal(err)
		}
		got, err := db2.ParetoFrontier(ParetoQuery{Generator: "persist"})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: frontier has %d points after reload, want %d", path, len(got), len(want))
		}
		for j := range got {
			if got[j].Exploration != want[j].Exploration {
				t.Fatalf("%s: frontier[%d] = %+v, want %+v", path, j, got[j].Exploration, want[j].Exploration)
			}
		}
	}
}

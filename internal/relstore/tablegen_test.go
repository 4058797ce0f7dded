package relstore

// Per-table generation: what moves it, what does not, and that the
// stamp handed out with a scan or an upsert names exactly the state
// that scan iterated or that upsert left behind.

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
)

func tableGen(t *testing.T, s *Store, name string) uint64 {
	t.Helper()
	g, err := s.TableGeneration(name)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestTableGenerationMovesOnlyOnEffectiveWritesToThatTable: a
// value-equal Upsert, a Delete that matches nothing and every kind of
// write to another table leave the stamp alone; each effective mutation
// raises it.
func TestTableGenerationMovesOnlyOnEffectiveWritesToThatTable(t *testing.T) {
	s := concStore(t, 4)
	other := Schema{Table: "o", Columns: []Column{{Name: "k", Type: TString}}, Key: []string{"k"}, Indexes: []Index{{Columns: []string{"k"}}}}
	if err := s.CreateTable(other); err != nil {
		t.Fatal(err)
	}
	g := tableGen(t, s, "t")

	// A value-equal rewrite and a delete of nothing.
	if err := s.Upsert("t", Row{"name": "r0001", "grp": 1, "val": 1.0}); err != nil {
		t.Fatal(err)
	}
	if n, err := s.Delete("t", Eq("grp", 9)); err != nil || n != 0 {
		t.Fatalf("no-op Delete = %d, %v", n, err)
	}
	// Another table: create, insert, upsert, delete.
	for _, step := range []func() error{
		func() error {
			return s.CreateTable(Schema{Table: "p", Columns: []Column{{Name: "k", Type: TString}}, Key: []string{"k"}})
		},
		func() error { return s.Insert("o", Row{"k": "a"}) },
		func() error { return s.Upsert("o", Row{"k": "b"}) },
		func() error { _, err := s.Delete("o", nil); return err },
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	if got := tableGen(t, s, "t"); got != g {
		t.Fatalf("generation of t moved %d -> %d without an effective write to t", g, got)
	}

	// Each effective mutation of t raises it.
	for i, step := range []func() error{
		func() error { return s.Insert("t", Row{"name": "new", "grp": 0, "val": 0.5}) },
		func() error { return s.Upsert("t", Row{"name": "r0001", "grp": 1, "val": 99.0}) },
		func() error { _, err := s.Delete("t", Eq("name", "r0003")); return err },
		func() error { _, err := s.Delete("t", Eq("grp", 2)); return err }, // r0002 and "new"
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
		got := tableGen(t, s, "t")
		if got <= g {
			t.Fatalf("step %d: generation %d did not rise above %d", i, got, g)
		}
		g = got
	}
}

// TestTableGenerationStampMonotoneUnderWrites reads stamps with no lock
// while a writer fills and empties the table and creates others: every
// read is at least the last one.
func TestTableGenerationStampMonotoneUnderWrites(t *testing.T) {
	s := concStore(t, 4)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				g, err := s.TableGeneration("t")
				if err != nil {
					t.Error(err)
					return
				}
				if g < last {
					t.Errorf("stamp went back from %d to %d", last, g)
					return
				}
				last = g
			}
		}()
	}
	for round := 0; round < 200; round++ {
		if err := s.CreateTable(Schema{Table: fmt.Sprintf("o%d", round), Columns: []Column{{Name: "k", Type: TString}}, Key: []string{"k"}}); err != nil {
			t.Fatal(err)
		}
		if err := s.Insert("t", Row{"name": "x", "grp": round, "val": 1.0}); err != nil {
			t.Fatal(err)
		}
		if err := s.Upsert("t", Row{"name": "x", "grp": round, "val": 2.0}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Delete("t", nil); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestUpsertStampedReportsDelta pins UpsertStamped's three outcomes.
func TestUpsertStampedReportsDelta(t *testing.T) {
	s := concStore(t, 2)
	g := tableGen(t, s, "t")

	res, err := s.UpsertStamped("t", Row{"name": "fresh", "grp": 0, "val": 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Replaced != nil || res.Before != g || res.After <= g || res.After != tableGen(t, s, "t") {
		t.Fatalf("insert: %+v (generation was %d)", res, g)
	}
	g = res.After

	res, err = s.UpsertStamped("t", Row{"name": "fresh", "grp": 0, "val": 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Before != g || res.After != g || res.Replaced["val"] != 1.0 {
		t.Fatalf("value-equal upsert: %+v, want a no-op at %d reporting the stored row", res, g)
	}

	res, err = s.UpsertStamped("t", Row{"name": "fresh", "grp": 3, "val": 2.0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Before != g || res.After <= g || res.Replaced["val"] != 1.0 || res.Replaced["grp"] != 0 {
		t.Fatalf("replacing upsert: %+v, want the old row and a raised generation", res)
	}
	if r, err := s.Get("t", "fresh"); err != nil || r["val"] != 2.0 {
		t.Fatalf("stored row after replace: %v, %v", r, err)
	}
}

// scanStamped scans all of table in one ScanTables call and returns the
// stamp it was handed and the rows it visited.
func scanStamped(s *Store, table string) (gen uint64, n int, err error) {
	scans := []TableScan{{Table: table, Visit: func(Row) bool { n++; return true }}}
	err = s.ScanTables(scans)
	return scans[0].Gen, n, err
}

// TestScanStampedNamesTheStateScanned: with one writer appending rows
// and nothing else touching the store, the table's generation is its
// creation stamp plus its row count — so every concurrent scan can check
// that the stamp ScanTables handed it describes exactly the rows it
// visited.
func TestScanStampedNamesTheStateScanned(t *testing.T) {
	s := concStore(t, 0)
	base := tableGen(t, s, "t")
	const writes = 400
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < writes; i++ {
			if err := s.Insert("t", Row{"name": fmt.Sprintf("w%04d", i), "grp": i % 4, "val": float64(i)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				gen, n, err := scanStamped(s, "t")
				if err != nil {
					t.Error(err)
					return
				}
				if gen != base+uint64(n) {
					t.Errorf("scan visited %d rows but was stamped %d (creation stamp %d)", n, gen, base)
					return
				}
				if n == writes {
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestTableGenerationOfPendingLazyTable: asking for the stamp of a cold
// table does not hydrate it, and hydration alone — same rows, now
// decoded — does not move it.
func TestTableGenerationOfPendingLazyTable(t *testing.T) {
	s := concStore(t, 32)
	path := filepath.Join(t.TempDir(), "cat.snap")
	if err := s.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	lz, err := OpenSnapshot(path, SnapshotOptions{Mode: OpenLazy})
	if err != nil {
		t.Fatal(err)
	}
	g := tableGen(t, lz, "t")
	if li := lz.LazyInfo(); li.Pending != 1 || li.Hydrations != 0 {
		t.Fatalf("TableGeneration hydrated the table: %+v", li)
	}
	gen, _, err := scanStamped(lz, "t")
	if err != nil {
		t.Fatal(err)
	}
	if li := lz.LazyInfo(); li.Pending != 0 {
		t.Fatalf("scan left the table cold: %+v", li)
	}
	if gen != g || tableGen(t, lz, "t") != g {
		t.Fatalf("hydration moved the generation: %d before, scan stamped %d, now %d", g, gen, tableGen(t, lz, "t"))
	}
}

// TestTableGenerationMovesOnDeferredReplay: journal records whose
// replay a lazy durable open deferred change the table when hydration
// applies them, so the stamp read while the table was cold must not
// survive its first touch — whichever record kind was deferred.
func TestTableGenerationMovesOnDeferredReplay(t *testing.T) {
	for _, kind := range []string{"insert", "upsert", "delete"} {
		dir := t.TempDir()
		d := openDurable(t, dir, DurableOptions{})
		if err := d.CreateTable(durableSchema()); err != nil {
			t.Fatal(err)
		}
		if err := d.Insert("impls", Row{"name": "a", "comp": "alu", "size": 1, "area": 1.0, "param": true}); err != nil {
			t.Fatal(err)
		}
		if err := d.Compact(); err != nil {
			t.Fatal(err)
		}
		var err error
		switch kind {
		case "upsert":
			err = d.Upsert("impls", Row{"name": "a", "comp": "alu", "size": 2, "area": 1.0, "param": true})
		case "insert":
			err = d.Insert("impls", Row{"name": "b", "comp": "alu", "size": 3, "area": 1.0, "param": true})
		case "delete":
			_, err = d.Delete("impls", Eq("name", "a"))
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		lz, err := OpenDurable(filepath.Join(dir, "cat.snap"), DurableOptions{Open: OpenLazy})
		if err != nil {
			t.Fatal(err)
		}
		cold := tableGen(t, lz.Store, "impls")
		if li := lz.Store.LazyInfo(); li.DeferredPending != 1 {
			t.Fatalf("%s: LazyInfo at open = %+v, want 1 deferred record", kind, li)
		}
		if _, err := lz.Count("impls", nil); err != nil {
			t.Fatal(err)
		}
		if hot := tableGen(t, lz.Store, "impls"); hot <= cold {
			t.Errorf("%s: deferred replay left the generation at %d (cold stamp %d)", kind, hot, cold)
		}
		lz.Close()
	}
}

// TestScanTablesPinsOneVersion: a writer inserts row i into table a and
// then into table b, so every state of the store holds i or i+1 rows in
// a against i in b. Each concurrent ScanTables over both tables must see
// one such state, stamped with the generations of exactly what it
// visited.
func TestScanTablesPinsOneVersion(t *testing.T) {
	s := New()
	for _, name := range []string{"a", "b"} {
		if err := s.CreateTable(Schema{Table: name, Columns: []Column{{Name: "k", Type: TInt}}, Key: []string{"k"}}); err != nil {
			t.Fatal(err)
		}
	}
	const writes = 300
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < writes; i++ {
			for _, name := range []string{"a", "b"} {
				if err := s.Insert(name, Row{"k": i}); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for scans := 0; ; scans++ {
		var na, nb int
		pin := []TableScan{
			{Table: "a", Visit: func(Row) bool { na++; return true }},
			{Table: "b", Visit: func(Row) bool { nb++; return true }},
		}
		if err := s.ScanTables(pin); err != nil {
			t.Fatal(err)
		}
		if na != nb && na != nb+1 {
			t.Fatalf("scan %d saw %d rows in a and %d in b: no state of the store held both", scans, na, nb)
		}
		if g, err := s.TableGeneration("b"); err != nil || pin[1].Gen > g || (na == writes && nb == writes && pin[1].Gen != g) {
			t.Fatalf("b stamped %d at the pin, now %d (%v)", pin[1].Gen, g, err)
		}
		if nb == writes {
			break
		}
	}
	<-done
}

// TestScanTablesSkipsTheStateHeld: a table whose snapshot still carries
// the caller's generation is not scanned and not pinned — the next write
// to it need not copy it — while the others in the call are.
func TestScanTablesSkipsTheStateHeld(t *testing.T) {
	s := concStore(t, 8)
	g := tableGen(t, s, "t")
	visited := 0
	scans := []TableScan{{Table: "t", Have: &g, Visit: func(Row) bool { visited++; return true }}}
	if err := s.ScanTables(scans); err != nil {
		t.Fatal(err)
	}
	if visited != 0 || scans[0].Gen != g || s.tableMap()["t"].data.shared.Load() {
		t.Fatalf("held state: visited %d rows, stamped %d (have %d), shared %v", visited, scans[0].Gen, g, s.tableMap()["t"].data.shared.Load())
	}
	stale := g - 1
	scans[0].Have = &stale
	if err := s.ScanTables(scans); err != nil || visited != 8 || scans[0].Gen != g {
		t.Fatalf("stale state: visited %d rows, stamped %d, %v", visited, scans[0].Gen, err)
	}
	if err := s.ScanTables([]TableScan{{Table: "t", Visit: func(Row) bool { return true }}, {Table: "nope"}}); err == nil {
		t.Fatal("ScanTables over a missing table did not fail")
	}
}

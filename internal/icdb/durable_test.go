package icdb_test

// Durable-catalog tests: the icdb layer's derived mutations
// (RegisterImpl, Generate) journal through a relstore.Durable store
// and survive a crash-style reopen, and re-opening an already-seeded
// catalog appends nothing — Open's bootstrap upserts are value-equal
// no-ops.

import (
	"path/filepath"
	"reflect"
	"testing"

	"icdb/internal/genus"
	"icdb/internal/icdb"
	"icdb/internal/relstore"
	"icdb/internal/relstore/faultfile"
)

func TestJournalDurableCatalog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cat.snap")
	d, err := relstore.OpenDurable(path, relstore.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	db, err := icdb.Open(d.Store)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterImpl(icdb.Impl{
		Name:      "jrnl_adder",
		Component: genus.CompAdderSubtractor,
		Style:     "ripple",
		Functions: []genus.Function{genus.FuncADD},
		WidthMin:  1, WidthMax: 64,
		Area: 42, Delay: 3.5,
		Source: "NAME: jrnl_adder; INORDER: a, b; OUTORDER: s; { s = a (+) b; }",
	}); err != nil {
		t.Fatal(err)
	}
	generated, _, err := db.Generate("gen_cnt", map[string]int{"size": 24})
	if err != nil {
		t.Fatal(err)
	}
	seeded := d.Info().Records
	if seeded == 0 {
		t.Fatal("no journal records after seeding a fresh catalog")
	}
	// Crash-style reopen: no Close, no Compact. FsyncAlways means every
	// acknowledged registration is already durable.

	d2, err := relstore.OpenDurable(path, relstore.DurableOptions{})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer d2.Close()
	db2, err := icdb.Open(d2.Store)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db2.ImplByName("jrnl_adder"); err != nil {
		t.Errorf("registered impl lost across reopen: %v", err)
	}
	if _, err := db2.ImplByName(generated.Name); err != nil {
		t.Errorf("generated impl %s lost across reopen: %v", generated.Name, err)
	}
	// The second Open re-ran the bootstrap upserts over an already
	// seeded catalog: all value-equal, so the journal must not have
	// grown — this is what lets icdbd boot journal-silently.
	if got := d2.Info().Records; got != seeded {
		t.Errorf("reopening an unchanged catalog grew the journal from %d to %d records", seeded, got)
	}
}

// TestJournalDurableExplorations asserts exploration rows journal like
// every other relation: a sweep's design points survive a crash-style
// reopen (no Close, no Compact — recovery runs from the post-crash
// filesystem image), each journal record replays exactly once, and
// re-running the same sweep after recovery appends nothing — the
// value-equal upsert no-op holds across a restart.
func TestJournalDurableExplorations(t *testing.T) {
	fs := faultfile.New()
	d, err := relstore.OpenDurable("cat.snap", relstore.DurableOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	db, err := icdb.Open(d.Store)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Explore("gen_cnt", 8, 32, 8, nil, false); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := db.EstimateImpl("cnt_up", 16); err != nil {
		t.Fatal(err)
	}
	want, err := db.Explorations()
	if err != nil {
		t.Fatal(err)
	}
	wantFrontier, err := db.ParetoFrontier(icdb.ParetoQuery{Component: genus.CompCounter})
	if err != nil {
		t.Fatal(err)
	}
	records := d.Info().Records

	// Crash: every further filesystem op fails, and only synced bytes
	// survive into the image. Under FsyncAlways (the default) every
	// acknowledged mutation is already durable, so KeepNone — the
	// strictest image — must recover everything.
	fs.CrashAt(fs.Ops())
	img := fs.Image(faultfile.KeepNone)

	d2, err := relstore.OpenDurable("cat.snap", relstore.DurableOptions{FS: img})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer d2.Close()
	if got := int64(d2.Info().Recovery.Replayed); got != records {
		t.Errorf("recovery replayed %d journal records, want each of %d exactly once", got, records)
	}
	db2, err := icdb.Open(d2.Store)
	if err != nil {
		t.Fatal(err)
	}
	got, err := db2.Explorations()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("explorations after crash reopen:\ngot  %+v\nwant %+v", got, want)
	}
	gotFrontier, err := db2.ParetoFrontier(icdb.ParetoQuery{Component: genus.CompCounter})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotFrontier, wantFrontier) {
		t.Errorf("frontier after crash reopen:\ngot  %+v\nwant %+v", gotFrontier, wantFrontier)
	}
	// Re-running the identical sweep against the recovered catalog is
	// journal-silent: every row upserts value-equal.
	if got := d2.Info().Records; got != records {
		t.Fatalf("reopen grew the journal from %d to %d records before any new work", records, got)
	}
	if _, err := db2.Explore("gen_cnt", 8, 32, 8, nil, false); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := db2.EstimateImpl("cnt_up", 16); err != nil {
		t.Fatal(err)
	}
	if got := d2.Info().Records; got != records {
		t.Errorf("re-running a recovered sweep grew the journal from %d to %d records", records, got)
	}
}

// TestJournalBytesPerRecord pins what one design point costs the
// journal. The record is the 8-byte frame, the opcode, the table name
// and the row's values in schema column order — no column names, no
// type tags: 8 + 1 + (4+12) + (4+7) + (4+7) + (4+7) + 3×8 = 82 bytes
// for gen_cnt[size=16]. A fresh Generate still appends 4 records.
func TestJournalBytesPerRecord(t *testing.T) {
	d, err := relstore.OpenDurable("cat.snap", relstore.DurableOptions{FS: faultfile.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	db, err := icdb.Open(d.Store)
	if err != nil {
		t.Fatal(err)
	}
	before := d.Info()
	if _, _, err := db.Generate("gen_cnt", map[string]int{"size": 24}); err != nil {
		t.Fatal(err)
	}
	after := d.Info()
	if got := after.Records - before.Records; got != 4 {
		t.Errorf("a fresh Generate appended %d journal records, want 4", got)
	}
	if err := db.RecordExploration(icdb.Exploration{
		Generator: "gen_cnt", Bindings: "size=16", Component: genus.CompCounter,
		Width: 16, Area: 160, Delay: 17,
	}); err != nil {
		t.Fatal(err)
	}
	last := d.Info()
	if got := last.Records - after.Records; got != 1 {
		t.Fatalf("RecordExploration appended %d records, want 1", got)
	}
	if got := last.JournalBytes - after.JournalBytes; got != 82 {
		t.Errorf("one explorations upsert cost %d journal bytes, want 82", got)
	}
}

// TestJournalInstantiateReuse pins what reusing an instance costs the
// journal, and that the bumped use count survives a crash-style reopen,
// eager and lazy. A reuse rewrites the instance row with one upsert
// record: 8 frame + 1 opcode + (4+9) table name + the row's values,
// id 8 + (4+5) "reg_d" + (4+6) "size=4" + (4+7) "designA" + uses 8 =
// 68 bytes.
func TestJournalInstantiateReuse(t *testing.T) {
	const reuses = 3
	for _, mode := range []relstore.OpenMode{relstore.OpenEager, relstore.OpenLazy} {
		path := filepath.Join(t.TempDir(), "cat.snap")
		d, err := relstore.OpenDurable(path, relstore.DurableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		db, err := icdb.Open(d.Store)
		if err != nil {
			t.Fatal(err)
		}
		// A snapshot holding the instances relation, so the lazy reopen
		// defers the instance records to that table's hydration.
		if err := d.Compact(); err != nil {
			t.Fatal(err)
		}
		binds := map[string]int{"size": 4}
		if _, _, err := db.Instantiate("designA", "reg_d", binds); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < reuses; i++ {
			before := d.Info()
			inst, reused, err := db.Instantiate("designB", "reg_d", binds)
			if err != nil || !reused || inst.Uses != i+2 {
				t.Fatalf("reuse %d: %+v reused=%v err=%v, want uses %d", i, inst, reused, err, i+2)
			}
			after := d.Info()
			if got := after.Records - before.Records; got != 1 {
				t.Errorf("a reuse appended %d journal records, want 1", got)
			}
			if got := after.JournalBytes - before.JournalBytes; got != 68 {
				t.Errorf("a reuse cost %d journal bytes, want 68", got)
			}
		}
		// Crash-style reopen: no Close, no Compact.
		d2, err := relstore.OpenDurable(path, relstore.DurableOptions{Open: mode})
		if err != nil {
			t.Fatalf("%v recovery: %v", mode, err)
		}
		db2, err := icdb.Open(d2.Store)
		if err != nil {
			t.Fatal(err)
		}
		insts, err := db2.Instances()
		if err != nil {
			t.Fatal(err)
		}
		if len(insts) != 1 || insts[0].Uses != reuses+1 || insts[0].Design != "designA" {
			t.Errorf("%v recovery: instances = %+v, want one designA instance used %d times", mode, insts, reuses+1)
		}
		d2.Close()
		d.Close()
	}
}

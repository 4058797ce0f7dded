package relstore

// Lazy-open test suite: first-touch hydration equivalence with eager
// open, save byte-identity, concurrent first touch under -race,
// per-section corruption isolation, pre-v4 fallback, and OpenDurable's
// deferred journal replay.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestLazyOpenSaveByteIdentical is the lazy analogue of
// TestSnapshotByteIdentical: for random stores, opening a snapshot
// lazily, touching an arbitrary subset of tables, and saving (which
// hydrates the rest) must produce exactly the bytes an eager open
// saves — and exactly the original file.
func TestLazyOpenSaveByteIdentical(t *testing.T) {
	dir := t.TempDir()
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := randomStore(t, rng)
		p0 := filepath.Join(dir, fmt.Sprintf("s%d_orig.snap", seed))
		if err := s.SaveSnapshot(p0); err != nil {
			t.Fatal(err)
		}
		eager, err := OpenSnapshot(p0, SnapshotOptions{})
		if err != nil {
			t.Fatalf("seed %d: eager open: %v", seed, err)
		}
		lazy, err := OpenSnapshot(p0, SnapshotOptions{Mode: OpenLazy})
		if err != nil {
			t.Fatalf("seed %d: lazy open: %v", seed, err)
		}
		// Touch a random subset now; SaveSnapshot's HydrateAll picks up
		// whatever stayed cold.
		for _, n := range lazy.Tables() {
			if rng.Intn(2) == 0 {
				if _, err := lazy.Count(n, nil); err != nil {
					t.Fatalf("seed %d: touch %q: %v", seed, n, err)
				}
			}
		}
		pe := filepath.Join(dir, fmt.Sprintf("s%d_eager.snap", seed))
		pl := filepath.Join(dir, fmt.Sprintf("s%d_lazy.snap", seed))
		if err := eager.SaveSnapshot(pe); err != nil {
			t.Fatal(err)
		}
		if err := lazy.SaveSnapshot(pl); err != nil {
			t.Fatal(err)
		}
		b0, _ := os.ReadFile(p0)
		be, _ := os.ReadFile(pe)
		bl, _ := os.ReadFile(pl)
		if !bytes.Equal(be, bl) {
			t.Fatalf("seed %d: lazy save differs from eager save (%d vs %d bytes)", seed, len(bl), len(be))
		}
		if !bytes.Equal(b0, bl) {
			t.Fatalf("seed %d: lazy round trip is not byte-identical to the original", seed)
		}
	}
}

// TestLazyOpenEquivalence: a lazily opened store answers every read
// exactly like an eager one, and the hydration counters move as
// documented — one hydration per table, never a re-decode.
func TestLazyOpenEquivalence(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(7))
	s := randomStore(t, rng)
	path := filepath.Join(dir, "cat.snap")
	if err := s.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	eager, err := OpenSnapshot(path, SnapshotOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := OpenSnapshot(path, SnapshotOptions{Mode: OpenLazy})
	if err != nil {
		t.Fatal(err)
	}

	li := lazy.LazyInfo()
	if !li.Lazy || li.Hydrated != 0 || li.Pending != len(s.Tables()) || li.Hydrations != 0 {
		t.Fatalf("fresh lazy open LazyInfo = %+v", li)
	}
	if ei := eager.LazyInfo(); ei.Lazy || ei.Pending != 0 {
		t.Fatalf("eager open LazyInfo = %+v", ei)
	}

	for _, n := range s.Tables() {
		want, err := eager.Select(n, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := lazy.Select(n, nil)
		if err != nil {
			t.Fatalf("lazy select %q: %v", n, err)
		}
		if len(got) != len(want) {
			t.Fatalf("table %q: lazy has %d rows, eager %d", n, len(got), len(want))
		}
		for i := range want {
			if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
				t.Fatalf("table %q row %d: lazy %v != eager %v", n, i, got[i], want[i])
			}
		}
		// Second touch: no new hydration.
		before := lazy.LazyInfo().Hydrations
		if _, err := lazy.Count(n, nil); err != nil {
			t.Fatal(err)
		}
		if after := lazy.LazyInfo().Hydrations; after != before {
			t.Fatalf("table %q re-hydrated (%d -> %d)", n, before, after)
		}
	}
	li = lazy.LazyInfo()
	if li.Pending != 0 || li.Hydrated != li.Tables || li.Hydrations != int64(li.Tables) {
		t.Fatalf("post-touch LazyInfo = %+v, want everything hydrated exactly once", li)
	}
}

// TestLazyConcurrentFirstTouch is the -race stress for the
// double-checked hydration gate: many goroutines race to first-touch
// every table; each table must hydrate exactly once and every reader
// must see the full row set.
func TestLazyConcurrentFirstTouch(t *testing.T) {
	dir := t.TempDir()
	s := New()
	const nTables, nRows = 6, 200
	for ti := 0; ti < nTables; ti++ {
		name := fmt.Sprintf("t%d", ti)
		if err := s.CreateTable(Schema{
			Table:   name,
			Columns: []Column{{Name: "id", Type: TInt}, {Name: "v", Type: TString}},
			Key:     []string{"id"},
		}); err != nil {
			t.Fatal(err)
		}
		for ri := 0; ri < nRows; ri++ {
			if err := s.Insert(name, Row{"id": ri, "v": fmt.Sprintf("val%d", ri)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	path := filepath.Join(dir, "cat.snap")
	if err := s.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	lazy, err := OpenSnapshot(path, SnapshotOptions{Mode: OpenLazy})
	if err != nil {
		t.Fatal(err)
	}

	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ti := 0; ti < nTables; ti++ {
				name := fmt.Sprintf("t%d", (ti+w)%nTables)
				if n, err := lazy.Count(name, nil); err != nil || n != nRows {
					errs <- fmt.Errorf("worker %d table %s: n=%d err=%v", w, name, n, err)
					return
				}
				if r, err := lazy.Get(name, w*7%nRows); err != nil || r["v"] != fmt.Sprintf("val%d", w*7%nRows) {
					errs <- fmt.Errorf("worker %d table %s: get %v err=%v", w, name, r, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	li := lazy.LazyInfo()
	if li.Hydrations != nTables || li.Pending != 0 {
		t.Errorf("LazyInfo = %+v, want exactly %d hydrations (one per table, no double decode)", li, nTables)
	}
}

// TestLazySectionCorruptionSweep corrupts each table section of a v4
// snapshot in turn: lazy open still succeeds and only the corrupt
// table's hydration fails (with a sticky error), while eager open of
// the same bytes fails the whole file at the trailer CRC.
func TestLazySectionCorruptionSweep(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(11))
	var s *Store
	for {
		s = randomStore(t, rng)
		if len(s.Tables()) >= 3 {
			break
		}
	}
	// Every table needs at least one row so a body flip is possible.
	for _, n := range s.Tables() {
		if err := s.Insert(n, mustRow(t, s, n)); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, "cat.snap")
	if err := s.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, entries, err := decodeSnapDirectory(orig)
	if err != nil {
		t.Fatal(err)
	}

	for _, victim := range entries {
		data := bytes.Clone(orig)
		data[victim.off+victim.len-1] ^= 0xFF // flip a row-payload byte
		bad := filepath.Join(dir, "bad.snap")
		if err := os.WriteFile(bad, data, 0o644); err != nil {
			t.Fatal(err)
		}

		if _, err := OpenSnapshot(bad, SnapshotOptions{}); err == nil ||
			!strings.Contains(err.Error(), "checksum mismatch") {
			t.Errorf("victim %q: eager open = %v, want whole-file checksum error", victim.name, err)
		}

		lazy, err := OpenSnapshot(bad, SnapshotOptions{Mode: OpenLazy})
		if err != nil {
			t.Fatalf("victim %q: lazy open: %v", victim.name, err)
		}
		for _, n := range lazy.Tables() {
			_, err := lazy.Select(n, nil)
			if n == victim.name {
				if err == nil || !strings.Contains(err.Error(), "section checksum mismatch") {
					t.Errorf("victim %q: corrupt section hydrated: %v", n, err)
				}
				// Sticky: the second touch fails identically without re-decoding.
				if _, err2 := lazy.Count(n, nil); err2 == nil || err2.Error() != err.Error() {
					t.Errorf("victim %q: poison not sticky (%v vs %v)", n, err2, err)
				}
			} else if err != nil {
				t.Errorf("victim %q: healthy table %q failed: %v", victim.name, n, err)
			}
		}
		if li := lazy.LazyInfo(); li.Pending != 1 {
			t.Errorf("victim %q: LazyInfo = %+v, want exactly the poisoned section pending", victim.name, li)
		}
	}
}

// mustRow builds one schema-conforming row for table n with a key no
// randomStore row uses.
func mustRow(t *testing.T, s *Store, n string) Row {
	t.Helper()
	sc, err := s.SchemaOf(n)
	if err != nil {
		t.Fatal(err)
	}
	r := Row{}
	for _, c := range sc.Columns {
		switch c.Type {
		case TString:
			r[c.Name] = "corruption-sweep-filler"
		case TInt:
			r[c.Name] = 1 << 21
		case TFloat:
			r[c.Name] = 3.25
		case TBool:
			r[c.Name] = true
		}
	}
	return r
}

// TestLazyDurableDeferredReplay: OpenDurable under OpenLazy defers each
// cold table's uncovered journal records to its hydration — structural
// records still apply at open — and first touch replays them exactly
// once, yielding the same state an eager recovery builds.
func TestLazyDurableDeferredReplay(t *testing.T) {
	dir := t.TempDir()
	d := openDurable(t, dir, DurableOptions{})
	if err := d.CreateTable(durableSchema()); err != nil {
		t.Fatal(err)
	}
	second := Schema{
		Table:   "notes",
		Columns: []Column{{Name: "k", Type: TString}, {Name: "txt", Type: TString}},
		Key:     []string{"k"},
	}
	if err := d.CreateTable(second); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := d.Insert("impls", Row{"name": fmt.Sprintf("i%d", i), "comp": "alu", "size": i, "area": float64(i), "param": true}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	// Uncovered tail: row records for both snapshot tables (deferrable),
	// plus a structural create-table + insert into the new table (the
	// create applies at open, which makes the table live, so its insert
	// applies eagerly too).
	if err := d.Insert("impls", Row{"name": "late", "comp": "mux", "size": 9, "area": 9.5, "param": false}); err != nil {
		t.Fatal(err)
	}
	if err := d.Upsert("notes", Row{"k": "a", "txt": "deferred?"}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Delete("impls", Eq("name", "i0")); err != nil {
		t.Fatal(err)
	}
	third := Schema{
		Table:   "fresh",
		Columns: []Column{{Name: "id", Type: TInt}},
		Key:     []string{"id"},
	}
	if err := d.CreateTable(third); err != nil {
		t.Fatal(err)
	}
	if err := d.Insert("fresh", Row{"id": 42}); err != nil {
		t.Fatal(err)
	}
	want := stateOf(t, d.Store)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	lz, err := OpenDurable(filepath.Join(dir, "cat.snap"), DurableOptions{Open: OpenLazy})
	if err != nil {
		t.Fatal(err)
	}
	defer lz.Close()
	ri := lz.Recovery()
	// impls: insert + delete deferred; notes: upsert deferred. fresh:
	// create-table + insert applied at open (3 deferred, 2 replayed).
	if ri.Deferred != 3 || ri.Replayed != 2 {
		t.Fatalf("recovery = %+v, want 3 deferred / 2 replayed", ri)
	}
	if !strings.Contains(ri.String(), "3 deferred to hydration") {
		t.Errorf("RecoveryInfo.String() = %q, want the deferred count", ri.String())
	}
	li := lz.Store.LazyInfo()
	if !li.Lazy || li.DeferredPending != 3 || li.DeferredReplayed != 0 {
		t.Fatalf("LazyInfo at open = %+v", li)
	}
	// The structural records' table is queryable immediately.
	if r, err := lz.Get("fresh", 42); err != nil || r["id"] != 42 {
		t.Fatalf("open-time applied record: %v, %v", r, err)
	}

	// First touch of impls replays its two records exactly once.
	if _, err := lz.Get("impls", "mux", "late"); err != nil {
		t.Fatalf("deferred insert not replayed: %v", err)
	}
	if _, err := lz.Get("impls", "alu", "i0"); err == nil {
		t.Error("deferred delete not replayed: i0 resurrected")
	}
	li = lz.Store.LazyInfo()
	if li.DeferredPending != 1 || li.DeferredReplayed != 2 {
		t.Fatalf("LazyInfo after touching impls = %+v, want 1 pending / 2 replayed", li)
	}

	// Full hydration converges on the eager recovery state.
	if err := lz.Store.HydrateAll(); err != nil {
		t.Fatal(err)
	}
	if got := stateOf(t, lz.Store); !bytes.Equal(got, want) {
		t.Error("lazy recovery diverged from pre-close state")
	}
	if li = lz.Store.LazyInfo(); li.DeferredPending != 0 || li.DeferredReplayed != 3 {
		t.Fatalf("LazyInfo after full hydration = %+v", li)
	}
}

// TestLazyDurableCompactHydratesFirst: Compact on a lazily opened store
// must fold the deferred records in — the rewritten snapshot covers the
// journal, so leaving them cold would lose them.
func TestLazyDurableCompactHydratesFirst(t *testing.T) {
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
	if err := d.Insert("impls", Row{"name": "b", "comp": "alu", "size": 2, "area": 2.0, "param": true}); err != nil {
		t.Fatal(err)
	}
	want := stateOf(t, d.Store)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	lz, err := OpenDurable(filepath.Join(dir, "cat.snap"), DurableOptions{Open: OpenLazy})
	if err != nil {
		t.Fatal(err)
	}
	if lz.Recovery().Deferred != 1 {
		t.Fatalf("recovery = %+v, want 1 deferred record", lz.Recovery())
	}
	// Compact without any prior touch: the deferred insert must survive.
	if err := lz.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := lz.Close(); err != nil {
		t.Fatal(err)
	}
	e, err := OpenDurable(filepath.Join(dir, "cat.snap"), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.Recovery().Replayed != 0 || e.Recovery().Deferred != 0 {
		t.Errorf("post-compact recovery = %+v, want an empty journal", e.Recovery())
	}
	if got := stateOf(t, e.Store); !bytes.Equal(got, want) {
		t.Error("compaction of a lazy store lost deferred records")
	}
}

// TestLazyDurableMissingTableRecordFailsAtOpen: a journal record naming
// a table the snapshot does not hold cannot be deferred — there is no
// stub to hang it on — and must fail the open loudly, exactly like an
// eager recovery.
func TestLazyDurableMissingTableRecordFailsAtOpen(t *testing.T) {
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
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Forge an insert record naming a table that is not in the snapshot
	// and append it with valid framing.
	appendRecord(t, filepath.Join(dir, "cat.snap.wal"), func(w *snapWriter) {
		w.u8(walOpInsert)
		w.str("ghost")
		w.str("row")
	})

	for _, mode := range []OpenMode{OpenLazy, OpenEager} {
		_, err := OpenDurable(filepath.Join(dir, "cat.snap"), DurableOptions{Open: mode})
		if err == nil || !strings.Contains(err.Error(), `no table "ghost"`) {
			t.Errorf("%v open with a ghost-table record: err = %v, want a loud missing-table failure", mode, err)
		}
	}
}

// appendRecord appends one forged record, built by build, to the
// journal at jpath with valid framing.
func appendRecord(t *testing.T, jpath string, build func(w *snapWriter)) {
	t.Helper()
	w := snapWriter{buf: &bytes.Buffer{}}
	build(&w)
	payload := w.buf.Bytes()
	frame := make([]byte, 8)
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, snapCRC))
	f, err := os.OpenFile(jpath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(append(frame, payload...)); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryEagerLazyAgree: a journal that eager recovery refuses is
// refused by a lazy open plus HydrateAll too. The forged journal holds
// two CRC-valid records over a compacted snapshot: an insert of a key
// the snapshot already holds, then a record with opcode 3 (a drop of
// that table in journal versions before 3). Eager replay fails on the
// duplicate key. Lazy recovery defers the insert to the table's
// hydration, so nothing may discard it unchecked.
func TestRecoveryEagerLazyAgree(t *testing.T) {
	dir := t.TempDir()
	d := openDurable(t, dir, DurableOptions{})
	if err := d.CreateTable(durableSchema()); err != nil {
		t.Fatal(err)
	}
	dup := Row{"name": "a", "comp": "alu", "size": 1, "area": 1.0, "param": true}
	if err := d.Insert("impls", dup); err != nil {
		t.Fatal(err)
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	jpath := filepath.Join(dir, "cat.snap.wal")
	appendRecord(t, jpath, func(w *snapWriter) {
		w.u8(walOpInsert)
		w.str("impls")
		if err := w.row("impls", durableSchema().Columns, dup); err != nil {
			t.Fatal(err)
		}
	})
	appendRecord(t, jpath, func(w *snapWriter) {
		w.u8(3)
		w.str("impls")
	})

	for _, mode := range []OpenMode{OpenEager, OpenLazy} {
		d, err := OpenDurable(filepath.Join(dir, "cat.snap"), DurableOptions{Open: mode, CompactAt: -1})
		if err == nil {
			err = d.HydrateAll()
			d.Close()
		}
		if err == nil {
			t.Errorf("%v recovery accepted an insert of a key the snapshot holds", mode)
		}
	}
}

// TestLazyDurableTornTail: torn-tail truncation happens at open, before
// any deferral — a lazy recovery of a torn journal lands on the same
// record prefix an eager one does.
func TestLazyDurableTornTail(t *testing.T) {
	dir := t.TempDir()
	jpath, states := seedJournal(t, dir, 6)
	jdata, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jpath, jdata[:len(jdata)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDurable(filepath.Join(dir, "cat.snap"), DurableOptions{Open: OpenLazy})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if !d.Recovery().Truncated {
		t.Fatal("torn tail not reported")
	}
	// No snapshot was ever written, so there are no stubs — everything
	// replayed eagerly and the state is the second-to-last prefix.
	if got := stateOf(t, d.Store); !bytes.Equal(got, states[len(states)-2]) {
		t.Error("lazy torn-tail recovery is not the clean record prefix")
	}
}

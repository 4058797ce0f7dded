package relstore

// Persistence tests: snapshot round-trips, robustness against malformed
// files and files of any other format or version, and atomic-save
// behavior.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// persistStore builds a store exercising every column type, a multi-table
// layout, a composite key, secondary indexes, a keyless table, an empty
// table, and strings containing the index-key separator and escape bytes.
func persistStore(t *testing.T) *Store {
	t.Helper()
	s := New()
	sc := implSchema()
	sc.Indexes = []Index{{Columns: []string{"component"}}, {Columns: []string{"component", "size"}}}
	if err := s.CreateTable(sc); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		r := Row{
			"name":          fmt.Sprintf("impl%02d", i),
			"component":     fmt.Sprintf("Comp%d", i%3),
			"size":          i % 5,
			"area":          float64(i) * 1.5,
			"parameterized": i%2 == 0,
		}
		if err := s.Insert("implementations", r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.CreateTable(Schema{
		Table:   "params",
		Columns: []Column{{Name: "tool", Type: TString}, {Name: "param", Type: TString}, {Name: "value", Type: TFloat}},
		Key:     []string{"tool", "param"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert("params", Row{"tool": "icdb", "param": "area_weight", "value": 2.5}); err != nil {
		t.Fatal(err)
	}
	// Separator and escape bytes inside keyed string values.
	if err := s.Insert("params", Row{"tool": "nul\x00tool", "param": `back\slash`, "value": 1.0}); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable(Schema{
		Table:   "log",
		Columns: []Column{{Name: "msg", Type: TString}},
	}); err != nil { // keyless
		t.Fatal(err)
	}
	if err := s.Insert("log", Row{"msg": "hello"}); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable(Schema{
		Table:   "empty",
		Columns: []Column{{Name: "x", Type: TInt}},
		Key:     []string{"x"},
	}); err != nil { // zero rows
		t.Fatal(err)
	}
	return s
}

// assertStoresEqual compares two stores table by table: schemas and full
// insertion-ordered row contents.
func assertStoresEqual(t *testing.T, want, got *Store) {
	t.Helper()
	wn, gn := want.Tables(), got.Tables()
	if fmt.Sprint(wn) != fmt.Sprint(gn) {
		t.Fatalf("tables = %v, want %v", gn, wn)
	}
	for _, n := range wn {
		ws, err := want.SchemaOf(n)
		if err != nil {
			t.Fatal(err)
		}
		gs, err := got.SchemaOf(n)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprintf("%+v", ws) != fmt.Sprintf("%+v", gs) {
			t.Errorf("table %q schema = %+v, want %+v", n, gs, ws)
		}
		wr, err := want.Select(n, nil)
		if err != nil {
			t.Fatal(err)
		}
		gr, err := got.Select(n, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(wr) != len(gr) {
			t.Fatalf("table %q: %d rows, want %d", n, len(gr), len(wr))
		}
		for i := range wr {
			if fmt.Sprintf("%v", Row(wr[i])) != fmt.Sprintf("%v", Row(gr[i])) {
				t.Errorf("table %q row %d = %v, want %v", n, i, gr[i], wr[i])
			}
			for k, v := range wr[i] {
				if fmt.Sprintf("%T", v) != fmt.Sprintf("%T", gr[i][k]) {
					t.Errorf("table %q row %d column %q type = %T, want %T (canonical types must survive)", n, i, k, gr[i][k], v)
				}
			}
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := persistStore(t)
	path := filepath.Join(t.TempDir(), "store.snap")
	if err := s.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenSnapshot(path, SnapshotOptions{})
	if err != nil {
		t.Fatal(err)
	}
	assertStoresEqual(t, s, s2)

	// The bulk-built indexes must actually serve reads.
	one, err := s2.Get("implementations", "impl07")
	if err != nil || one["size"] != 2 {
		t.Fatalf("Get after snapshot load = %v, %v", one, err)
	}
	rows, err := s2.Select("implementations", Eq("component", "Comp1"))
	if err != nil || len(rows) == 0 {
		t.Fatalf("secondary-index select after snapshot load = %d rows, %v", len(rows), err)
	}
	for _, r := range rows {
		if r["component"] != "Comp1" {
			t.Errorf("indexed select returned %v", r)
		}
	}
	if _, err := s2.Get("params", "nul\x00tool", `back\slash`); err != nil {
		t.Errorf("composite key with separator bytes broken after load: %v", err)
	}

	// The loaded store must stay writable: key conflicts detected, new
	// rowids allocated past the bulk-loaded ones, scan order extended.
	if err := s2.Insert("implementations", Row{
		"name": "impl00", "component": "X", "size": 1, "area": 1.0, "parameterized": false,
	}); err == nil {
		t.Error("duplicate key accepted after snapshot load")
	}
	if err := s2.Insert("implementations", Row{
		"name": "fresh", "component": "Comp1", "size": 9, "area": 1.0, "parameterized": false,
	}); err != nil {
		t.Fatal(err)
	}
	all, err := s2.Select("implementations", nil)
	if err != nil || len(all) != 26 || all[25]["name"] != "fresh" {
		t.Fatalf("insert after snapshot load: %d rows, last %v (%v)", len(all), all[len(all)-1]["name"], err)
	}
}

// TestSnapshotRobustness: malformed snapshots of every flavor fail with
// descriptive errors — never a panic, never a silently wrong store.
func TestSnapshotRobustness(t *testing.T) {
	s := persistStore(t)
	path := filepath.Join(t.TempDir(), "store.snap")
	if err := s.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	load := func(b []byte) error {
		_, _, err := decodeSnapshot(b, SnapshotOptions{})
		return err
	}

	t.Run("truncated", func(t *testing.T) {
		// Every proper prefix must fail (the checksum trailer guarantees
		// it); step through all short prefixes and a sample of longer ones.
		for n := 0; n < len(data); n++ {
			if n > 64 && n%7 != 0 {
				continue
			}
			if err := load(data[:n]); err == nil {
				t.Fatalf("truncation to %d bytes loaded successfully", n)
			}
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte("NOTASNAP"), data[8:]...)
		if err := load(bad); err == nil || !strings.Contains(err.Error(), "magic") {
			t.Errorf("bad magic: %v", err)
		}
	})
	t.Run("wrong version", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		binary.LittleEndian.PutUint32(bad[8:], 999)
		// Re-seal the checksum so the version check itself is reached.
		binary.LittleEndian.PutUint32(bad[len(bad)-4:], crcOf(bad[:len(bad)-4]))
		if err := load(bad); err == nil || !strings.Contains(err.Error(), "version 999") {
			t.Errorf("wrong version: %v", err)
		}
	})
	t.Run("v1 snapshot rejected", func(t *testing.T) {
		// A version-1 file (the PR 3 format, predating the generators and
		// estimators sections) must be rejected with a clear version error
		// — not misparsed as a catalog missing the new relations.
		old := append([]byte(nil), data...)
		binary.LittleEndian.PutUint32(old[8:], 1)
		binary.LittleEndian.PutUint32(old[len(old)-4:], crcOf(old[:len(old)-4]))
		err := load(old)
		if err == nil || !strings.Contains(err.Error(), "unsupported snapshot version 1 (this build reads version 4)") {
			t.Fatalf("v1 snapshot: %v, want unsupported-version error naming the one supported version", err)
		}
	})
	t.Run("other versions rejected on every open path", func(t *testing.T) {
		// Hand-built headers: right magic, every version this repository
		// ever wrote but the current one plus the next, over a body that
		// is not a snapshot at all. The version alone decides — before any
		// checksum or directory is looked at — and eager open, lazy open
		// and OpenDurable say the same thing.
		dir := t.TempDir()
		for _, v := range []uint32{1, 2, 3, 5} {
			hdr := binary.LittleEndian.AppendUint32([]byte(snapMagic), v)
			file := append(hdr, bytes.Repeat([]byte{0xA5}, 64)...)
			p := filepath.Join(dir, fmt.Sprintf("v%d.snap", v))
			if err := os.WriteFile(p, file, 0o644); err != nil {
				t.Fatal(err)
			}
			want := fmt.Sprintf("unsupported snapshot version %d (this build reads version 4)", v)
			_, eager := OpenSnapshot(p, SnapshotOptions{})
			_, lazy := OpenSnapshot(p, SnapshotOptions{Mode: OpenLazy})
			_, durable := OpenDurable(p, DurableOptions{})
			_, durableLazy := OpenDurable(p, DurableOptions{Open: OpenLazy})
			for path, err := range map[string]error{"eager": eager, "lazy": lazy, "durable": durable, "durable lazy": durableLazy} {
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("version %d, %s open: %v, want %q", v, path, err, want)
				}
			}
			if got, err := os.ReadFile(p); err != nil || !bytes.Equal(got, file) {
				t.Errorf("version %d: rejected file was rewritten (%v)", v, err)
			}
			if _, err := os.Stat(p + ".wal"); err == nil {
				t.Errorf("version %d: OpenDurable left a journal next to a file it refused", v)
			}
		}
	})
	t.Run("json catalog rejected", func(t *testing.T) {
		// A JSON catalog (the retired Save format) is not sniffed any
		// more: bad magic, with a pointer at the tool that reads it.
		p := filepath.Join(t.TempDir(), "cat.json")
		for _, body := range []string{`{}`, `{"implementations": {"schema": {"Table": "implementations"}, "rows": []}}`} {
			if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
			_, eager := OpenSnapshot(p, SnapshotOptions{})
			_, lazy := OpenSnapshot(p, SnapshotOptions{Mode: OpenLazy})
			_, durable := OpenDurable(p, DurableOptions{})
			for path, err := range map[string]error{"eager": eager, "lazy": lazy, "durable": durable} {
				if err == nil || !strings.Contains(err.Error(), "bad magic") || !strings.Contains(err.Error(), "icdbq import") {
					t.Errorf("%s open of %q: %v, want bad-magic error naming icdbq import", path, body, err)
				}
			}
		}
	})
	t.Run("corrupted byte", func(t *testing.T) {
		for _, off := range []int{12, len(data) / 2, len(data) - 5} {
			bad := append([]byte(nil), data...)
			bad[off] ^= 0xFF
			if err := load(bad); err == nil || !strings.Contains(err.Error(), "checksum") {
				t.Errorf("flip at %d: %v, want checksum error", off, err)
			}
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		bad := append(append([]byte(nil), data[:len(data)-4]...), "junk"...)
		bad = append(bad, data[len(data)-4:]...)
		if err := load(bad); err == nil {
			t.Error("trailing garbage accepted")
		}
	})
	t.Run("duplicate keys", func(t *testing.T) {
		// Forge a checksummed snapshot whose keyed table repeats a key:
		// the trusted path must still refuse it.
		forged := buildForgedSnapshot(t, func(w *snapWriter) {
			w.str("t")
			w.u32(1)
			w.str("k")
			w.u8(uint8(TString))
			w.u32(1)
			w.str("k")
			w.u32(0)           // no secondary indexes
			w.u32(2)           // two rows
			w.u64(2 * (4 + 1)) // payload
			w.str("x")
			w.str("x")
		})
		if err := load(forged); err == nil || !strings.Contains(err.Error(), "duplicate") {
			t.Errorf("duplicate keys: %v", err)
		}
	})
	t.Run("payload mismatch", func(t *testing.T) {
		forged := buildForgedSnapshot(t, func(w *snapWriter) {
			w.str("t")
			w.u32(1)
			w.str("k")
			w.u8(uint8(TInt))
			w.u32(0) // no key
			w.u32(0) // no indexes
			w.u32(1) // one row
			w.u64(99)
			w.u64(7)
		})
		if err := load(forged); err == nil {
			t.Error("payload length mismatch accepted")
		}
	})
	t.Run("absurd row count", func(t *testing.T) {
		forged := buildForgedSnapshot(t, func(w *snapWriter) {
			w.str("t")
			w.u32(1)
			w.str("k")
			w.u8(uint8(TInt))
			w.u32(0)
			w.u32(0)
			w.u32(1 << 30) // a billion rows in an empty payload
			w.u64(0)
		})
		if err := load(forged); err == nil || !strings.Contains(err.Error(), "row count") {
			t.Errorf("absurd row count: %v", err)
		}
	})
	t.Run("empty store", func(t *testing.T) {
		p := filepath.Join(t.TempDir(), "empty.snap")
		if err := New().SaveSnapshot(p); err != nil {
			t.Fatal(err)
		}
		s2, err := OpenSnapshot(p, SnapshotOptions{})
		if err != nil || len(s2.Tables()) != 0 {
			t.Errorf("empty store round-trip: %v tables, %v", s2.Tables(), err)
		}
	})
}

func crcOf(b []byte) uint32 { return crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli)) }

// buildForgedSnapshot seals the section written by fill inside valid
// framing (sealSection), so only the section's own contents are wrong.
func buildForgedSnapshot(t *testing.T, fill func(*snapWriter)) []byte {
	t.Helper()
	var sec bytes.Buffer
	fill(&snapWriter{buf: &sec})
	return sealSection(sec.Bytes())
}

// TestSnapshotByteIdentical is the quick-style property: for a spread of
// pseudo-random stores, Save -> OpenSnapshot -> Save reproduces the file
// byte for byte (deterministic table order, preserved insertion order,
// canonical value types).
func TestSnapshotByteIdentical(t *testing.T) {
	dir := t.TempDir()
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := randomStore(t, rng)
		p1 := filepath.Join(dir, fmt.Sprintf("s%d_a.snap", seed))
		p2 := filepath.Join(dir, fmt.Sprintf("s%d_b.snap", seed))
		if err := s.SaveSnapshot(p1); err != nil {
			t.Fatal(err)
		}
		s2, err := OpenSnapshot(p1, SnapshotOptions{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := s2.SaveSnapshot(p2); err != nil {
			t.Fatal(err)
		}
		b1, err := os.ReadFile(p1)
		if err != nil {
			t.Fatal(err)
		}
		b2, err := os.ReadFile(p2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("seed %d: Save -> OpenSnapshot -> Save is not byte-identical (%d vs %d bytes)", seed, len(b1), len(b2))
		}
	}
}

// randomStore generates a store with random tables, schemas, and rows.
func randomStore(t *testing.T, rng *rand.Rand) *Store {
	t.Helper()
	s := New()
	types := []ColType{TString, TInt, TFloat, TBool}
	for ti := 0; ti < 1+rng.Intn(4); ti++ {
		sc := Schema{Table: fmt.Sprintf("table%d", ti)}
		nCols := 1 + rng.Intn(5)
		for ci := 0; ci < nCols; ci++ {
			sc.Columns = append(sc.Columns, Column{
				Name: fmt.Sprintf("c%d", ci),
				Type: types[rng.Intn(len(types))],
			})
		}
		// Half the tables get an int id key column; some get an index.
		keyed := rng.Intn(2) == 0
		if keyed {
			sc.Columns = append(sc.Columns, Column{Name: "id", Type: TInt})
			sc.Key = []string{"id"}
		}
		if rng.Intn(2) == 0 {
			sc.Indexes = []Index{{Columns: []string{sc.Columns[0].Name}}}
		}
		if err := s.CreateTable(sc); err != nil {
			t.Fatal(err)
		}
		for ri := 0; ri < rng.Intn(30); ri++ {
			r := Row{}
			for _, c := range sc.Columns {
				switch c.Type {
				case TString:
					b := make([]byte, rng.Intn(12))
					rng.Read(b)
					r[c.Name] = string(b) // arbitrary bytes incl. NUL and '\'
				case TInt:
					r[c.Name] = rng.Intn(1 << 20)
				case TFloat:
					r[c.Name] = rng.NormFloat64()
				case TBool:
					r[c.Name] = rng.Intn(2) == 0
				}
			}
			if keyed {
				r["id"] = ri
			}
			if err := s.Insert(sc.Table, r); err != nil {
				t.Fatal(err)
			}
		}
	}
	return s
}

// TestSaveAtomic: a save goes through the temp-file-and-rename
// protocol — a failed save leaves the previous file intact and no
// temp litter behind.
func TestSaveAtomic(t *testing.T) {
	s := persistStore(t)
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		save func(string) error
	}{
		{"snapshot", s.SaveSnapshot},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, tc.name+".db")
			if err := tc.save(path); err != nil {
				t.Fatal(err)
			}
			before, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// A save into a missing directory fails before touching path.
			if err := tc.save(filepath.Join(dir, "no-such-dir", "x.db")); err == nil {
				t.Error("save into missing directory succeeded")
			}
			after, err := os.ReadFile(path)
			if err != nil || !bytes.Equal(before, after) {
				t.Error("failed save disturbed the existing file")
			}
			// Overwrite succeeds, preserves the destination's existing
			// permissions (os.WriteFile semantics), and leaves no temp
			// files around.
			if err := os.Chmod(path, 0o600); err != nil {
				t.Fatal(err)
			}
			if err := tc.save(path); err != nil {
				t.Fatal(err)
			}
			if fi, err := os.Stat(path); err != nil || fi.Mode().Perm() != 0o600 {
				t.Errorf("overwrite changed mode to %v (%v), want 0600 preserved", fi.Mode().Perm(), err)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if strings.Contains(e.Name(), ".tmp-") {
					t.Errorf("temp file %q left behind", e.Name())
				}
			}
		})
	}
}

// TestRowsCursor: the iterator walks planned candidates in insertion
// order, stops on break without wedging the store lock, and surfaces
// unknown-table errors through the sequence.
func TestRowsCursor(t *testing.T) {
	s := persistStore(t)
	var names []string
	for r, err := range s.Rows("implementations", Eq("component", "Comp2")) {
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, r["name"].(string))
	}
	want, err := s.Select("implementations", Eq("component", "Comp2"))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != len(want) {
		t.Fatalf("cursor yielded %d rows, Select %d", len(names), len(want))
	}
	for i := range want {
		if names[i] != want[i]["name"] {
			t.Errorf("row %d = %q, want %q (insertion order)", i, names[i], want[i]["name"])
		}
	}
	// Early break must release the read lock: a write afterwards would
	// deadlock if the iterator leaked it.
	for range s.Rows("implementations", nil) {
		break
	}
	if err := s.Insert("implementations", Row{
		"name": "post-break", "component": "X", "size": 0, "area": 0.0, "parameterized": false,
	}); err != nil {
		t.Fatalf("insert after broken iteration: %v", err)
	}
	sawErr := false
	for _, err := range s.Rows("no_such_table", nil) {
		if err == nil {
			t.Fatal("missing table yielded a row")
		}
		sawErr = true
	}
	if !sawErr {
		t.Error("missing table: cursor yielded nothing, want error")
	}
}

package relstore

// One schema validator: every way a table comes into being — CreateTable,
// a snapshot section (eager decode and lazy hydration), a journaled
// create-table record — builds it through newTable, so a column type no
// reader can decode is refused where it enters, never at the next open.

import (
	"bytes"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// badTypeSchema declares one column of a type no codec knows.
func badTypeSchema() Schema {
	return Schema{
		Table:   "t",
		Columns: []Column{{Name: "k", Type: TString}, {Name: "v", Type: ColType(9)}},
		Key:     []string{"k"},
	}
}

func wantUnknownType(t *testing.T, what string, err error) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), "unknown column type 9") {
		t.Fatalf("%s: err = %v, want the unknown column type 9 error", what, err)
	}
}

// TestCreateTableRejectsUnknownColumnType: the table is refused at
// creation, so no catalog holding it can be saved and then fail to open.
func TestCreateTableRejectsUnknownColumnType(t *testing.T) {
	s := New()
	wantUnknownType(t, "CreateTable", s.CreateTable(badTypeSchema()))
	if len(s.Tables()) != 0 {
		t.Fatalf("a refused table was created: %v", s.Tables())
	}
	if err := checkType(ColType(9), 1); err == nil {
		t.Fatal("checkType accepted a value for an unknown column type")
	}
}

// TestJournalReplayRejectsUnknownColumnType: a create-table record
// declaring the type fails recovery, naming the type.
func TestJournalReplayRejectsUnknownColumnType(t *testing.T) {
	var payload bytes.Buffer
	pw := &snapWriter{buf: &payload}
	pw.u8(walOpCreateTable)
	pw.schema(badTypeSchema())
	var j bytes.Buffer
	w := &snapWriter{buf: &j}
	w.raw([]byte(walMagic))
	w.u32(walVersion)
	w.u64(0)
	w.u32(uint32(payload.Len()))
	w.u32(crc32.Checksum(payload.Bytes(), snapCRC))
	w.raw(payload.Bytes())
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "cat.snap.wal"), j.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDurable(filepath.Join(dir, "cat.snap"), DurableOptions{CompactAt: -1})
	if err == nil {
		d.Close()
	}
	wantUnknownType(t, "OpenDurable", err)
}

// TestSnapshotSectionRejectsUnknownColumnType: a sealed section whose
// schema declares the type fails the eager decode, and poisons the lazy
// stub so that hydration fails the same way.
func TestSnapshotSectionRejectsUnknownColumnType(t *testing.T) {
	data := buildForgedSnapshot(t, func(w *snapWriter) {
		w.schema(badTypeSchema())
		w.u32(0) // no rows
		w.u64(0) // empty payload
	})
	_, _, err := decodeSnapshot(data, SnapshotOptions{Workers: 1})
	wantUnknownType(t, "eager decode", err)
	lazy, _, err := decodeSnapshot(data, SnapshotOptions{Mode: OpenLazy})
	if err != nil {
		t.Fatalf("lazy open: %v", err)
	}
	wantUnknownType(t, "lazy hydration", lazy.HydrateAll())
}

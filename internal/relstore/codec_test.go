package relstore

// The shared codec: positional rows round-trip every column type, a
// value of the wrong Go type is an encode error (so a journaled mutation
// fails before it applies), and a journal record is decoded against its
// table's schema and must be consumed exactly.

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestRowCodecRoundTrip(t *testing.T) {
	cols := durableSchema().Columns
	row := Row{"name": "a\x00b", "comp": "", "size": -7, "area": 2.5, "param": true}
	var buf bytes.Buffer
	if err := (&snapWriter{buf: &buf}).row("impls", cols, row); err != nil {
		t.Fatal(err)
	}
	// Two 4-byte string lengths plus their 3+0 bytes, int, float, bool:
	// no column name and no type tag.
	if want := 4 + 3 + 4 + 8 + 8 + 1; buf.Len() != want {
		t.Errorf("row encoded to %d bytes, want %d", buf.Len(), want)
	}
	r := &snapReader{b: buf.Bytes()}
	if got := r.row(cols); !reflect.DeepEqual(got, row) || r.done() != nil {
		t.Errorf("decoded %v (%v), want %v", got, r.done(), row)
	}
	short := &snapReader{b: buf.Bytes()[:buf.Len()-1]}
	if short.row(cols); short.done() == nil {
		t.Error("a row one byte short decoded cleanly")
	}
	long := &snapReader{b: append(buf.Bytes(), 0)}
	if long.row(cols); long.done() == nil || !strings.Contains(long.done().Error(), "1 byte(s) of trailing data") {
		t.Errorf("a trailing byte: %v", long.done())
	}
}

func TestRowCodecRejectsNonCanonicalValue(t *testing.T) {
	cols := durableSchema().Columns
	row := Row{"name": "a", "comp": "b", "size": int64(1), "area": 1.0, "param": false}
	err := (&snapWriter{buf: &bytes.Buffer{}}).row("impls", cols, row)
	if err == nil || !strings.Contains(err.Error(), `column "size": cannot encode int64 value in int column`) {
		t.Fatalf("err = %v, want the cannot-encode error", err)
	}
	// Through the journal: the error returns before anything is appended.
	d := openDurable(t, t.TempDir(), DurableOptions{})
	defer d.Close()
	before := d.Info()
	d.mu.Lock()
	err = d.logWAL(func(w *snapWriter) error { return w.row("impls", cols, row) })
	d.mu.Unlock()
	if err == nil {
		t.Fatal("logWAL journaled a value the codec cannot encode")
	}
	if after := d.Info(); after.Appends != before.Appends || after.JournalBytes != before.JournalBytes {
		t.Errorf("a failed encode appended: %+v -> %+v", before, after)
	}
}

// TestJournalRecordConsumedExactly: an insert record with one byte cut
// from or added to its payload — resealed, so the CRC holds — fails
// recovery instead of replaying a misread row.
func TestJournalRecordConsumedExactly(t *testing.T) {
	seedDir := t.TempDir()
	jpath, _ := seedJournal(t, seedDir, 1)
	jdata, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	// Records: create-table, then the one insert.
	off := walHeaderLen + walFrameLen + int(binary.LittleEndian.Uint32(jdata[walHeaderLen:]))
	insert := jdata[off+walFrameLen:]
	if insert[0] != walOpInsert {
		t.Fatalf("second record has opcode %d, want insert", insert[0])
	}
	for _, tc := range []struct {
		what    string
		payload []byte
		want    string
	}{
		{"short", insert[:len(insert)-1], "unexpected end"},
		{"trailing", append(append([]byte(nil), insert...), 0), "trailing data"},
	} {
		var frame [walFrameLen]byte
		binary.LittleEndian.PutUint32(frame[:], uint32(len(tc.payload)))
		binary.LittleEndian.PutUint32(frame[4:], crcOf(tc.payload))
		forged := append(append(append([]byte(nil), jdata[:off]...), frame[:]...), tc.payload...)
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "cat.snap.wal"), forged, 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := OpenDurable(filepath.Join(dir, "cat.snap"), DurableOptions{})
		if err == nil {
			d.Close()
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s insert record: err = %v, want %q", tc.what, err, tc.want)
		}
	}
}

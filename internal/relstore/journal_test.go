package relstore

// Write-ahead journal tests: recovery edge cases (empty journal, no
// snapshot, torn tails at every byte offset, mid-file corruption,
// snapshot/journal pairing), exactly-once replay across the compaction
// crash window, the deterministic-recovery property over seeded random
// stores, fsync policies, auto-compaction, and the journaled-store
// invariants (keyed tables only, no-op mutations stay journal-silent).
// The crash-point sweep lives in faultfile/crash_test.go.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// durableSchema is the keyed multi-type table the journal tests use.
func durableSchema() Schema {
	return Schema{
		Table: "impls",
		Columns: []Column{
			{Name: "name", Type: TString},
			{Name: "comp", Type: TString},
			{Name: "size", Type: TInt},
			{Name: "area", Type: TFloat},
			{Name: "param", Type: TBool},
		},
		Key: []string{"comp", "name"}, // composite: exercises key joining
	}
}

func openDurable(t *testing.T, dir string, opt DurableOptions) *Durable {
	t.Helper()
	d, err := OpenDurable(filepath.Join(dir, "cat.snap"), opt)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// stateOf fingerprints a store's logical state: the table sections of
// its snapshot encoding — every schema, index declaration and row, in
// order. What precedes them (the covered LSN, and the directory whose
// CRC covers it) and the trailer depend on the journal position, not
// the contents; the directory's names, lengths and section CRCs are all
// derived from the sections themselves.
func stateOf(t *testing.T, s *Store) []byte {
	t.Helper()
	s.mu.RLock()
	data, err := s.encodeSnapshot()
	s.mu.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	_, entries, err := decodeSnapDirectory(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		return nil
	}
	return data[entries[0].off : len(data)-snapTrailerLen]
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d := openDurable(t, dir, DurableOptions{})
	sc := durableSchema()
	sc.Indexes = []Index{{Columns: []string{"size"}}}
	if err := d.CreateTable(sc); err != nil {
		t.Fatal(err)
	}
	rows := []Row{
		{"name": "add8", "comp": "adder", "size": 8, "area": 120.5, "param": true},
		{"name": "add16", "comp": "adder", "size": 16, "area": 230.0, "param": true},
		// Key parts exercising the \x00 separator and escape bytes.
		{"name": "a\x00b", "comp": "mux\\esc", "size": 2, "area": 1.0, "param": false},
	}
	for _, r := range rows {
		if err := d.Insert("impls", r); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Upsert("impls", Row{"name": "add16", "comp": "adder", "size": 16, "area": 999.0, "param": true}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Delete("impls", Eq("name", "add8")); err != nil {
		t.Fatal(err)
	}
	want := stateOf(t, d.Store)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// No Compact was called: the catalog lives entirely in the journal.
	if _, err := os.Stat(filepath.Join(dir, "cat.snap")); !os.IsNotExist(err) {
		t.Fatalf("snapshot file exists without a compaction (stat err %v)", err)
	}

	d2 := openDurable(t, dir, DurableOptions{})
	defer d2.Close()
	if got := stateOf(t, d2.Store); !bytes.Equal(got, want) {
		t.Error("recovered state differs from pre-close state")
	}
	ri := d2.Recovery()
	if ri.SnapshotLoaded || ri.Truncated || ri.Replayed != 6 {
		t.Errorf("recovery = %+v, want no snapshot, no truncation, 6 records", ri)
	}
	if got, err := d2.Get("impls", "mux\\esc", "a\x00b"); err != nil || got["size"] != 2 {
		t.Errorf("escaped-key row after recovery: %v, %v", got, err)
	}
	if _, err := d2.Get("impls", "adder", "add8"); err == nil {
		t.Error("deleted row resurrected by recovery")
	}
}

func TestJournalEmptyJournalAndFreshOpen(t *testing.T) {
	dir := t.TempDir()
	// Fresh open: no snapshot, no journal.
	d := openDurable(t, dir, DurableOptions{})
	if ri := d.Recovery(); ri.SnapshotLoaded || ri.Replayed != 0 {
		t.Errorf("fresh open recovery = %+v", ri)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Second open: header-only journal, zero records.
	d2 := openDurable(t, dir, DurableOptions{})
	if ri := d2.Recovery(); ri.Replayed != 0 || ri.Truncated {
		t.Errorf("header-only journal recovery = %+v", ri)
	}
	d2.Close()
	// A zero-byte journal (created but never written) is treated as
	// absent, not corrupt.
	if err := os.WriteFile(filepath.Join(dir, "cat.snap.wal"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	d3 := openDurable(t, dir, DurableOptions{})
	if ri := d3.Recovery(); ri.Replayed != 0 {
		t.Errorf("zero-byte journal recovery = %+v", ri)
	}
	d3.Close()
}

// seedJournal creates a journaled catalog with n inserted rows and no
// compaction, returning the journal path and the state fingerprint
// after each record (fingerprints[i] = state once i records applied).
func seedJournal(t *testing.T, dir string, n int) (string, [][]byte) {
	t.Helper()
	d := openDurable(t, dir, DurableOptions{})
	shadow := New()
	states := [][]byte{stateOf(t, shadow)}
	step := func(f func(s *Store) error) {
		t.Helper()
		if err := f(d.Store); err != nil {
			t.Fatal(err)
		}
		if err := f(shadow); err != nil {
			t.Fatal(err)
		}
		states = append(states, stateOf(t, shadow))
	}
	step(func(s *Store) error { return s.CreateTable(durableSchema()) })
	for i := 0; i < n; i++ {
		r := Row{"name": fmt.Sprintf("impl%02d", i), "comp": "alu", "size": i, "area": float64(i), "param": i%2 == 0}
		step(func(s *Store) error { return s.Insert("impls", r) })
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, "cat.snap.wal"), states
}

func TestJournalTornTailTruncatesAtEveryOffset(t *testing.T) {
	seedDir := t.TempDir()
	jpath, states := seedJournal(t, seedDir, 6)
	jdata, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}

	// recordEnds[i] = byte offset where record i ends.
	var recordEnds []int64
	for off := int64(walHeaderLen); off < int64(len(jdata)); {
		ln := int64(binary.LittleEndian.Uint32(jdata[off:]))
		off += walFrameLen + ln
		recordEnds = append(recordEnds, off)
	}
	if len(recordEnds) != len(states)-1 || recordEnds[len(recordEnds)-1] != int64(len(jdata)) {
		t.Fatalf("frame scan found %d records ending at %v, file is %d bytes", len(recordEnds), recordEnds, len(jdata))
	}

	for cut := walHeaderLen; cut <= len(jdata); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "cat.snap.wal"), jdata[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := OpenDurable(filepath.Join(dir, "cat.snap"), DurableOptions{})
		if err != nil {
			t.Fatalf("cut=%d: recovery failed: %v", cut, err)
		}
		complete := 0
		for _, end := range recordEnds {
			if end <= int64(cut) {
				complete++
			}
		}
		if got := stateOf(t, d.Store); !bytes.Equal(got, states[complete]) {
			t.Errorf("cut=%d: recovered state is not the %d-record prefix", cut, complete)
		}
		ri := d.Recovery()
		// A cut exactly on a record boundary leaves no torn bytes — that
		// is a clean (if short) journal, not a truncation.
		boundary := int64(walHeaderLen)
		if complete > 0 {
			boundary = recordEnds[complete-1]
		}
		wantTorn := int64(cut) != boundary
		if ri.Truncated != wantTorn || ri.Replayed != complete {
			t.Errorf("cut=%d: recovery = %+v, want truncated=%v replayed=%d", cut, ri, wantTorn, complete)
		}
		if wantTorn && ri.TruncatedAt != boundary {
			t.Errorf("cut=%d: truncated at %d, want %d", cut, ri.TruncatedAt, boundary)
		}
		// The truncation is physical: a second open is clean.
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		d2, err := OpenDurable(filepath.Join(dir, "cat.snap"), DurableOptions{})
		if err != nil {
			t.Fatalf("cut=%d: second open: %v", cut, err)
		}
		if ri2 := d2.Recovery(); ri2.Truncated {
			t.Errorf("cut=%d: second open still sees a torn tail", cut)
		}
		d2.Close()
	}
}

func TestJournalRejectsMidFileCorruption(t *testing.T) {
	dir := t.TempDir()
	jpath, _ := seedJournal(t, dir, 6)
	jdata, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of the FIRST record: valid records follow, so
	// this is not a torn tail and must be rejected, not truncated.
	bad := append([]byte(nil), jdata...)
	bad[walHeaderLen+walFrameLen] ^= 0xFF
	if err := os.WriteFile(jpath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenDurable(filepath.Join(dir, "cat.snap"), DurableOptions{})
	if err == nil || !strings.Contains(err.Error(), "corrupt record") {
		t.Fatalf("mid-file corruption: %v, want corrupt-record error", err)
	}
	// The same flip in the LAST record is a torn write: truncate.
	bad = append([]byte(nil), jdata...)
	lastStart := int64(walHeaderLen)
	for off := int64(walHeaderLen); off < int64(len(jdata)); {
		lastStart = off
		off += walFrameLen + int64(binary.LittleEndian.Uint32(jdata[off:]))
	}
	bad[lastStart+walFrameLen] ^= 0xFF
	if err := os.WriteFile(jpath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDurable(filepath.Join(dir, "cat.snap"), DurableOptions{})
	if err != nil {
		t.Fatalf("torn final record: %v", err)
	}
	defer d.Close()
	if ri := d.Recovery(); !ri.Truncated || ri.TruncatedAt != lastStart {
		t.Errorf("torn final record: recovery = %+v, want truncation at %d", ri, lastStart)
	}
}

func TestJournalRejectsBadMagicAndVersion(t *testing.T) {
	dir := t.TempDir()
	jpath, _ := seedJournal(t, dir, 1)
	jdata, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	open := func() error {
		_, err := OpenDurable(filepath.Join(dir, "cat.snap"), DurableOptions{})
		return err
	}
	bad := append([]byte(nil), jdata...)
	copy(bad, "NOTAJRNL")
	os.WriteFile(jpath, bad, 0o644)
	if err := open(); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("bad magic: %v", err)
	}
	bad = append([]byte(nil), jdata...)
	binary.LittleEndian.PutUint32(bad[len(walMagic):], 99)
	os.WriteFile(jpath, bad, 0o644)
	if err := open(); err == nil || !strings.Contains(err.Error(), "unsupported version 99") {
		t.Errorf("bad version: %v", err)
	}
	// A version-1 journal (self-describing tagged values) and a
	// version-2 one (which may hold drop-table and update records) are
	// refused by the same check, before any of their records is read.
	for _, v := range []uint32{1, 2} {
		binary.LittleEndian.PutUint32(bad[len(walMagic):], v)
		os.WriteFile(jpath, bad, 0o644)
		if err := open(); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unsupported version %d (this build reads version 3)", v)) {
			t.Errorf("version-%d journal: %v", v, err)
		}
	}
	// Shorter than the header (but non-empty): not a journal either.
	os.WriteFile(jpath, jdata[:walHeaderLen-3], 0o644)
	if err := open(); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("short header: %v", err)
	}
}

// TestJournalAdoptsCompactedOldVersionJournal: compacting with an older
// build leaves its journal a bare header at the snapshot's covered LSN.
// That journal holds no record, so an open adopts it and rewrites it at
// the current version; a bare old header at any other LSN is refused.
func TestJournalAdoptsCompactedOldVersionJournal(t *testing.T) {
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
	jpath := filepath.Join(dir, "cat.snap.wal")
	hdr, err := os.ReadFile(jpath)
	if err != nil || len(hdr) != walHeaderLen {
		t.Fatalf("compacted journal: %d bytes, %v; want the bare header", len(hdr), err)
	}
	old := append([]byte(nil), hdr...)
	binary.LittleEndian.PutUint32(old[len(walMagic):], walVersion-1)
	elsewhere := append([]byte(nil), old...)
	binary.LittleEndian.PutUint64(elsewhere[len(walMagic)+4:], binary.LittleEndian.Uint64(old[len(walMagic)+4:])+1)
	os.WriteFile(jpath, elsewhere, 0o644)
	if _, err := OpenDurable(filepath.Join(dir, "cat.snap"), DurableOptions{}); err == nil || !strings.Contains(err.Error(), "unsupported version") {
		t.Errorf("bare old-version header past the snapshot: %v, want the version refusal", err)
	}

	os.WriteFile(jpath, old, 0o644)
	d = openDurable(t, dir, DurableOptions{})
	if err := d.Insert("impls", Row{"name": "b", "comp": "alu", "size": 2, "area": 2.0, "param": false}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	now, err := os.ReadFile(jpath)
	if err != nil || !bytes.Equal(now[:walHeaderLen], hdr) {
		t.Fatalf("adopted journal header = %x (%v), want the current one %x", now[:min(len(now), walHeaderLen)], err, hdr)
	}
	d = openDurable(t, dir, DurableOptions{})
	defer d.Close()
	if n, err := d.Count("impls", nil); err != nil || n != 2 {
		t.Errorf("after adopting the old journal: %d rows (%v), want 2", n, err)
	}
}

// TestJournalDeleteRecordNamingARowTwice: a forged delete record that
// names one key twice removes that row once and leaves every other row
// reachable by key — including one whose key values render like a
// missing row's.
func TestJournalDeleteRecordNamingARowTwice(t *testing.T) {
	dir := t.TempDir()
	d := openDurable(t, dir, DurableOptions{})
	if err := d.CreateTable(durableSchema()); err != nil {
		t.Fatal(err)
	}
	for _, r := range []Row{
		{"name": "a", "comp": "alu", "size": 1, "area": 1.0, "param": true},
		{"name": "<nil>", "comp": "<nil>", "size": 2, "area": 2.0, "param": false},
	} {
		if err := d.Insert("impls", r); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	appendRecord(t, filepath.Join(dir, "cat.snap.wal"), func(w *snapWriter) {
		w.u8(walOpDelete)
		w.str("impls")
		w.u32(2)
		for range 2 {
			w.str("alu")
			w.str("a")
		}
	})
	d = openDurable(t, dir, DurableOptions{})
	defer d.Close()
	if n, err := d.Count("impls", nil); err != nil || n != 1 {
		t.Errorf("after the record: %d rows (%v), want 1", n, err)
	}
	if _, err := d.Get("impls", "<nil>", "<nil>"); err != nil {
		t.Errorf("the surviving row is not reachable by key: %v", err)
	}
}

// TestJournalCompactionCrashWindowReplay reconstructs the compaction
// crash window — new snapshot durable, journal not yet trimmed — and
// asserts the folded records are skipped, not re-applied. Replay is
// strict (a re-applied Insert would fail on the duplicate key), so a
// clean open proves exactly-once.
func TestJournalCompactionCrashWindowReplay(t *testing.T) {
	dir := t.TempDir()
	d := openDurable(t, dir, DurableOptions{})
	if err := d.CreateTable(durableSchema()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		r := Row{"name": fmt.Sprintf("i%d", i), "comp": "c", "size": i, "area": 0.0, "param": false}
		if err := d.Insert("impls", r); err != nil {
			t.Fatal(err)
		}
	}
	jpath := filepath.Join(dir, "cat.snap.wal")
	preCompact, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	// One more record after the fold point.
	if err := d.Insert("impls", Row{"name": "late", "comp": "c", "size": 99, "area": 0.0, "param": true}); err != nil {
		t.Fatal(err)
	}
	postCompact, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	want := stateOf(t, d.Store)
	d.Close()

	// Rewind the journal to its pre-compaction contents plus the late
	// record's frame: exactly what a crash before truncateTo leaves.
	lateFrame := postCompact[walHeaderLen:]
	if err := os.WriteFile(jpath, append(append([]byte(nil), preCompact...), lateFrame...), 0o644); err != nil {
		t.Fatal(err)
	}
	d2 := openDurable(t, dir, DurableOptions{})
	defer d2.Close()
	if got := stateOf(t, d2.Store); !bytes.Equal(got, want) {
		t.Error("crash-window recovery diverged from pre-crash state")
	}
	ri := d2.Recovery()
	if !ri.SnapshotLoaded || ri.Replayed != 1 {
		t.Errorf("crash-window recovery = %+v, want snapshot + exactly 1 replayed record", ri)
	}
}

func TestJournalSnapshotPairMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	d := openDurable(t, dir, DurableOptions{})
	if err := d.CreateTable(durableSchema()); err != nil {
		t.Fatal(err)
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	d.Close()
	// Replace the snapshot with one that never saw the journal: its
	// covered LSN (0) is below the journal's base (1), so records are
	// missing and the open must refuse.
	if err := New().SaveSnapshot(filepath.Join(dir, "cat.snap")); err != nil {
		t.Fatal(err)
	}
	_, err := OpenDurable(filepath.Join(dir, "cat.snap"), DurableOptions{})
	if err == nil || !strings.Contains(err.Error(), "only covers") {
		t.Fatalf("mismatched pair: %v, want missing-records error", err)
	}
}

// readHookFS is the OS filesystem with a hook run once, right after the
// first read of one path.
type readHookFS struct {
	osFS
	path string
	once sync.Once
	hook func()
}

func (f *readHookFS) ReadFile(path string) ([]byte, error) {
	data, err := f.osFS.ReadFile(path)
	if path == f.path {
		f.once.Do(f.hook)
	}
	return data, err
}

// TestJournalOpenBesideCompactingOwner: a second process opening a live
// catalog reads the snapshot, then the journal; when the owner compacts
// between the two reads (new snapshot renamed, then a journal rebased
// past the snapshot just read), the open reads the pair again instead of
// refusing it as mismatched, and sees every acknowledged row.
func TestJournalOpenBesideCompactingOwner(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cat.snap")
	owner := openDurable(t, dir, DurableOptions{Fsync: FsyncAlways, CompactAt: -1})
	defer owner.Close()
	if err := owner.CreateTable(durableSchema()); err != nil {
		t.Fatal(err)
	}
	n := 0
	insert := func(k int) {
		for range k {
			n++
			if err := owner.Insert("impls", Row{"name": fmt.Sprintf("r%03d", n), "comp": "adder", "size": n, "area": 1.0, "param": true}); err != nil {
				t.Fatal(err)
			}
		}
	}
	insert(10)
	if err := owner.Compact(); err != nil {
		t.Fatal(err)
	}
	insert(10)
	fsys := &readHookFS{path: path, hook: func() {
		insert(5)
		if err := owner.Compact(); err != nil {
			t.Fatal(err)
		}
		insert(3)
	}}
	reader, err := OpenDurable(path, DurableOptions{FS: fsys, Fsync: FsyncAlways, CompactAt: -1})
	if err != nil {
		t.Fatalf("open beside a compaction: %v", err)
	}
	defer reader.Close()
	if got, err := reader.Count("impls", nil); err != nil || got != n {
		t.Fatalf("reader sees %d row(s) (%v), owner acknowledged %d", got, err, n)
	}
	if !bytes.Equal(stateOf(t, reader.Store), stateOf(t, owner.Store)) {
		t.Fatal("reader's state differs from the owner's")
	}
}

func TestJournalRequiresKeyedTables(t *testing.T) {
	keyless := Schema{Table: "log", Columns: []Column{{Name: "msg", Type: TString}}}
	dir := t.TempDir()
	d := openDurable(t, dir, DurableOptions{})
	defer d.Close()
	if err := d.CreateTable(keyless); err == nil || !strings.Contains(err.Error(), "keyed") {
		t.Errorf("journaled CreateTable of keyless table: %v", err)
	}
	// A pre-existing snapshot with a keyless table is rejected at open.
	dir2 := t.TempDir()
	s := New()
	if err := s.CreateTable(keyless); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveSnapshot(filepath.Join(dir2, "cat.snap")); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDurable(filepath.Join(dir2, "cat.snap"), DurableOptions{}); err == nil ||
		!strings.Contains(err.Error(), "no primary key") {
		t.Errorf("open over keyless snapshot: %v", err)
	}
}

func TestJournalNoOpMutationsStaySilent(t *testing.T) {
	dir := t.TempDir()
	d := openDurable(t, dir, DurableOptions{})
	defer d.Close()
	if err := d.CreateTable(durableSchema()); err != nil {
		t.Fatal(err)
	}
	r := Row{"name": "x", "comp": "c", "size": 1, "area": 2.0, "param": true}
	if err := d.Insert("impls", r); err != nil {
		t.Fatal(err)
	}
	gen, recs := d.Generation(), d.Info().Records
	// A value-equal upsert and a delete that matches nothing: no journal
	// record, no generation bump — re-seeding an already-seeded catalog
	// must be free.
	if err := d.Upsert("impls", r); err != nil {
		t.Fatal(err)
	}
	if n, err := d.Delete("impls", Eq("name", "absent")); err != nil || n != 0 {
		t.Fatalf("no-op delete: n=%d err=%v", n, err)
	}
	if d.Generation() != gen || d.Info().Records != recs {
		t.Errorf("no-op mutations moved generation %d->%d, records %d->%d",
			gen, d.Generation(), recs, d.Info().Records)
	}
	// An effective mutation moves both.
	r["size"] = 2
	if err := d.Upsert("impls", r); err != nil {
		t.Fatal(err)
	}
	if d.Generation() == gen || d.Info().Records == recs {
		t.Error("effective upsert left generation/records unchanged")
	}
}

func TestJournalCompactionThresholdAuto(t *testing.T) {
	dir := t.TempDir()
	d := openDurable(t, dir, DurableOptions{Fsync: FsyncOff, CompactAt: 2048})
	defer d.Close()
	if err := d.CreateTable(durableSchema()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		r := Row{"name": fmt.Sprintf("impl%03d", i), "comp": "alu", "size": i, "area": float64(i), "param": false}
		if err := d.Insert("impls", r); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for d.Info().Compactions == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("auto-compaction never ran (journal %d bytes)", d.Info().JournalBytes)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The compactor races the insert burst: on a busy machine its snapshot
	// is cut early, the burst's tail stays in the journal, and only another
	// append re-arms the size trigger. Nudge it with single appends until
	// the journal is back under the threshold.
	for i := 200; ; i++ {
		info := d.Info()
		if info.JournalBytes < 2048 || info.Records <= 100 {
			break
		}
		if time.Now().After(deadline) {
			t.Errorf("journal did not shrink after compaction: %+v", info)
			break
		}
		r := Row{"name": fmt.Sprintf("impl%03d", i), "comp": "alu", "size": i, "area": float64(i), "param": false}
		if err := d.Insert("impls", r); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := OpenSnapshot(filepath.Join(dir, "cat.snap"), SnapshotOptions{}); err != nil {
		t.Errorf("compacted snapshot unreadable: %v", err)
	}
}

// gateFS is the OS filesystem with a gate on the first snapshot temp
// file: Create blocks there until the test lets it through, which holds
// a compaction between its encode and its write.
type gateFS struct {
	osFS
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func (g *gateFS) Create(path string) (File, error) {
	if strings.HasSuffix(path, "cat.snap.tmp") {
		g.once.Do(func() {
			close(g.entered)
			<-g.release
		})
	}
	return g.osFS.Create(path)
}

// TestJournalAutoCompactionOncePerCrossing: appends made while a
// compaction runs still see a journal over the threshold and signal the
// compactor again. Once that compaction has cut the journal back under
// the threshold the stale signal must not buy a second snapshot rewrite
// for the few records appended meanwhile.
func TestJournalAutoCompactionOncePerCrossing(t *testing.T) {
	dir := t.TempDir()
	fs := &gateFS{entered: make(chan struct{}), release: make(chan struct{})}
	d := openDurable(t, dir, DurableOptions{Fsync: FsyncOff, CompactAt: 2048, FS: fs})
	defer d.Close()
	if err := d.CreateTable(durableSchema()); err != nil {
		t.Fatal(err)
	}
	n := 0
	insert := func() {
		t.Helper()
		r := Row{"name": fmt.Sprintf("impl%03d", n), "comp": "alu", "size": n, "area": float64(n), "param": false}
		if err := d.Insert("impls", r); err != nil {
			t.Fatal(err)
		}
		n++
	}
	for d.Info().JournalBytes < 2048 {
		insert()
	}
	select {
	case <-fs.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("auto-compaction never reached its snapshot write")
	}
	for i := 0; i < 3; i++ {
		insert() // journal still over the threshold: each of these signals
	}
	close(fs.release)
	deadline := time.Now().Add(10 * time.Second)
	for d.Info().Compactions == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the held compaction never finished")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(200 * time.Millisecond) // room for a second compaction, were one coming
	if info := d.Info(); info.Compactions != 1 || info.Records != 3 {
		t.Errorf("after one threshold crossing: %d compaction(s), %d record(s) left in the journal; want 1 and the 3 appended meanwhile",
			info.Compactions, info.Records)
	}
	// The trigger is still armed: the next crossing compacts again.
	for d.Info().JournalBytes < 2048 {
		insert()
	}
	for d.Info().Compactions < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("second crossing never compacted: %+v", d.Info())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestJournalFsyncIntervalTicker(t *testing.T) {
	dir := t.TempDir()
	d := openDurable(t, dir, DurableOptions{Fsync: FsyncInterval, FsyncInterval: 5 * time.Millisecond})
	defer d.Close()
	if err := d.CreateTable(durableSchema()); err != nil {
		t.Fatal(err)
	}
	base := d.Info().Syncs
	if err := d.Insert("impls", Row{"name": "x", "comp": "c", "size": 1, "area": 0.0, "param": false}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for d.Info().Syncs == base {
		if time.Now().After(deadline) {
			t.Fatal("interval ticker never synced the dirty journal")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestJournalRecoverDeterministicProperty is the seeded-random
// property: build a catalog through a random journaled mutation
// sequence, "crash" (drop the store without Close), and recover. The
// recovered state must equal a shadow store that applied the same
// mutations, and recovering twice then saving must be byte-identical —
// recovery is deterministic, Save → crash → recover → Save reproduces
// the file exactly.
func TestJournalRecoverDeterministicProperty(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewPCG(seed, seed))
		dir := t.TempDir()
		d := openDurable(t, dir, DurableOptions{Fsync: FsyncOff, CompactAt: -1})
		shadow := New()
		both := func(f func(s *Store) error) {
			t.Helper()
			if err := f(d.Store); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if err := f(shadow); err != nil {
				t.Fatalf("seed %d (shadow): %v", seed, err)
			}
		}
		both(func(s *Store) error { return s.CreateTable(durableSchema()) })
		var keys []string
		for op := 0; op < 120; op++ {
			switch k := rng.IntN(10); {
			case k < 5 || len(keys) == 0: // insert
				name := fmt.Sprintf("impl%04d", rng.IntN(10000))
				r := Row{"name": name, "comp": "c", "size": rng.IntN(64), "area": float64(rng.IntN(1000)) / 4, "param": rng.IntN(2) == 0}
				if _, err := shadow.Get("impls", "c", name); err == nil {
					both(func(s *Store) error { return s.Upsert("impls", r) })
				} else {
					both(func(s *Store) error { return s.Insert("impls", r) })
					keys = append(keys, name)
				}
			case k < 7: // update in place
				name := keys[rng.IntN(len(keys))]
				area := float64(rng.IntN(1000))
				both(func(s *Store) error {
					r, err := s.Get("impls", "c", name)
					if err != nil {
						return err
					}
					r["area"] = area
					return s.Upsert("impls", r)
				})
			case k < 8: // re-key: delete, then insert under the new key
				i := rng.IntN(len(keys))
				old, next := keys[i], fmt.Sprintf("renamed%04d", rng.IntN(10000))
				if _, err := shadow.Get("impls", "c", next); err == nil {
					continue // target key taken; skip
				}
				both(func(s *Store) error {
					r, err := s.Get("impls", "c", old)
					if err != nil {
						return err
					}
					if _, err := s.Delete("impls", And(Eq("comp", "c"), Eq("name", old))); err != nil {
						return err
					}
					r["name"] = next
					return s.Insert("impls", r)
				})
				keys[i] = next
			default: // delete
				i := rng.IntN(len(keys))
				both(func(s *Store) error {
					_, err := s.Delete("impls", And(Eq("comp", "c"), Eq("name", keys[i])))
					return err
				})
				keys[i] = keys[len(keys)-1]
				keys = keys[:len(keys)-1]
			}
			if op == 60 {
				// Mid-sequence fold point: recovery crosses snapshot+journal.
				if err := d.Compact(); err != nil {
					t.Fatalf("seed %d: compact: %v", seed, err)
				}
			}
		}
		want := stateOf(t, shadow)
		// Crash: abandon d without Close. FsyncOff means nothing was
		// synced since the compaction, but the OS file still holds every
		// written byte — equivalent to faultfile's KeepAll image.
		if got := stateOf(t, d.Store); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: live store diverged from shadow (test bug)", seed)
		}

		r1 := openDurable(t, dir, DurableOptions{})
		if got := stateOf(t, r1.Store); !bytes.Equal(got, want) {
			t.Errorf("seed %d: recovered state differs from shadow", seed)
		}
		p1 := filepath.Join(dir, "save1.snap")
		if err := r1.SaveSnapshot(p1); err != nil {
			t.Fatal(err)
		}
		r1.Close()
		r2 := openDurable(t, dir, DurableOptions{})
		p2 := filepath.Join(dir, "save2.snap")
		if err := r2.SaveSnapshot(p2); err != nil {
			t.Fatal(err)
		}
		r2.Close()
		b1, _ := os.ReadFile(p1)
		b2, _ := os.ReadFile(p2)
		if len(b1) == 0 || !bytes.Equal(b1, b2) {
			t.Errorf("seed %d: recover → Save is not byte-identical across recoveries", seed)
		}
	}
}

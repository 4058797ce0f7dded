// Write-ahead journal: crash-safe incremental persistence between
// full snapshots. The wire format and recovery rules live in
// JOURNAL.md; the short version:
//
//   - A Durable store appends one CRC-32C-checksummed record per
//     mutation (CreateTable, Insert, Upsert, Delete) to an append-only
//     journal file *before* applying the mutation in memory, under the
//     store's write lock, with a configurable fsync policy. A mutation
//     is acknowledged only after its record is in the journal.
//   - OpenDurable recovers by loading the snapshot (if any) and
//     replaying the journal. A torn or partially-written tail —
//     the expected shape of a crash mid-append — is truncated at the
//     last valid record; a corrupt record with valid records after it
//     is rejected as real corruption, never silently dropped.
//   - Replay is exactly-once: every record has an implicit sequence
//     number (the journal header's base LSN plus its position), each
//     snapshot is stamped with the LSN it covers, and recovery skips
//     records below that mark. That makes compaction crash-safe:
//     Compact writes a fresh snapshot (temp + fsync + rename) and only
//     then rewrites the journal without the folded prefix; a crash
//     between the two steps leaves folded records in the file, but the
//     new snapshot's covered LSN keeps them from re-applying. Records
//     address rows by primary key (rowids are not stable across a
//     snapshot reload), so journaled tables must declare one.
//   - The journal is fail-stop: if an append or sync fails partway,
//     later bytes could land after a torn record and become
//     unrecoverable, so the first failure poisons the journal and
//     every subsequent mutation errors until the store is reopened.
//     Recovery then truncates the torn record — nothing after it was
//     ever acknowledged.
//   - Replay applies each record through the code that applied it live
//     (createTableLocked, insertLocked, upsertLocked, removeLocked), so
//     a record replays exactly as its mutation applied.

package relstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// walMagic opens every journal file, followed by a u32 version and a
	// u64 base LSN.
	walMagic = "ICDBJRNL"
	// walVersion is the current journal format version: 2 wrote rows
	// and keys positionally, with the snapshot's row codec (codec.go);
	// 3 retired the drop-table and update records.
	walVersion = 3
	// walHeaderLen is magic + version + base LSN. The base LSN is the
	// sequence number of the file's first record: record i carries LSN
	// base+i implicitly, and compaction bumps the base as it drops the
	// folded prefix. Recovery skips records below the snapshot's covered
	// LSN, which makes replay exactly-once — the compaction crash window
	// (new snapshot durable, journal not yet trimmed) re-reads folded
	// records but never re-applies them.
	walHeaderLen = len(walMagic) + 4 + 8
	// walFrameLen is the per-record frame: u32 payload length + u32
	// CRC-32C of the payload.
	walFrameLen = 8
	// walMaxRecord bounds one record's payload (a multi-row Delete is
	// one record); larger declared lengths are treated as garbage
	// framing.
	walMaxRecord = 64 << 20
)

// Journal record opcodes (first payload byte). 2 was create-index,
// retired with version 2; 3 (drop-table) and 6 (update) were retired
// with version 3.
const (
	walOpCreateTable = 1
	walOpInsert      = 4
	walOpUpsert      = 5
	walOpDelete      = 7
)

// FsyncPolicy says when the journal flushes appended records to stable
// storage. The policy is the durability/latency trade-off knob: what a
// crash can lose is exactly the records appended since the last sync.
type FsyncPolicy int

// Fsync policies.
const (
	// FsyncAlways syncs after every record: an acknowledged mutation
	// survives any crash. The default.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval syncs at most once per DurableOptions.FsyncInterval
	// (a background ticker catches the idle tail): a crash loses at
	// most the last interval's acknowledged records.
	FsyncInterval
	// FsyncOff never syncs except on Close and compaction: a crash may
	// lose any acknowledged record since the last durable point, but
	// recovery still yields a clean prefix of them.
	FsyncOff
)

// String names the policy the way the icdbd -fsync flag spells it.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncOff:
		return "off"
	}
	return fmt.Sprintf("FsyncPolicy(%d)", int(p))
}

// DurableOptions configures OpenDurable. The zero value is a journal
// next to the snapshot (path + ".wal"), fsync on every record, a 4 MiB
// auto-compaction threshold, and the real filesystem.
type DurableOptions struct {
	// Journal is the journal file path; empty defaults to the snapshot
	// path + ".wal".
	Journal string
	// Fsync is the sync policy; the zero value is FsyncAlways.
	Fsync FsyncPolicy
	// FsyncInterval is the FsyncInterval period; the zero value is
	// 100ms. Ignored by the other policies.
	FsyncInterval time.Duration
	// CompactAt is the journal size in bytes that triggers an automatic
	// background compaction; 0 uses the 4 MiB default and a negative
	// value disables auto-compaction (Compact can still be called).
	CompactAt int64
	// FS is the filesystem to operate on; nil is the real one. The
	// crash-torture tests inject faultfile.FS here.
	FS FS
	// Open selects how the snapshot at the store path is decoded: the
	// zero value is a full eager decode; OpenLazy defers each table's
	// rows to first touch and, with them, the replay of that table's
	// uncovered journal records (see RecoveryInfo.Deferred).
	Open OpenMode
}

// RecoveryInfo describes what OpenDurable found and did.
type RecoveryInfo struct {
	// SnapshotLoaded reports whether a snapshot existed at the store
	// path.
	SnapshotLoaded bool
	// Replayed is the number of journal records applied at open.
	Replayed int
	// Deferred is the number of journal records whose replay a lazy
	// open handed to table hydration instead of applying at open.
	Deferred int
	// Truncated reports whether a torn tail was cut off the journal.
	Truncated bool
	// TruncatedAt is the byte offset of the cut when Truncated.
	TruncatedAt int64
}

// String renders the outcome for logs and "show server": "clean" or
// "truncated torn tail at offset N", plus the replay count.
func (ri RecoveryInfo) String() string {
	src := "no snapshot"
	if ri.SnapshotLoaded {
		src = "snapshot"
	}
	replay := fmt.Sprintf("%s + %d journal record(s)", src, ri.Replayed)
	if ri.Deferred > 0 {
		replay += fmt.Sprintf(", %d deferred to hydration", ri.Deferred)
	}
	if ri.Truncated {
		return fmt.Sprintf("truncated torn tail at offset %d (%s)", ri.TruncatedAt, replay)
	}
	return fmt.Sprintf("clean (%s)", replay)
}

// DurabilityInfo is a snapshot of a Durable store's journal state, the
// numbers behind "show server"'s durability lines.
type DurabilityInfo struct {
	JournalPath string
	// Policy is the fsync policy, rendered ("always", "interval(1s)",
	// "off").
	Policy string
	// JournalBytes is the journal file's current size.
	JournalBytes int64
	// Records is the record count in the journal — the mutations not
	// yet folded into the snapshot by compaction.
	Records int64
	// Appends and Syncs count journal appends and fsyncs since open.
	Appends int64
	Syncs   int64
	// Compactions counts completed compactions since open.
	Compactions int64
	// Recovery is what OpenDurable found.
	Recovery RecoveryInfo
}

// errWALClosed poisons the journal after Close.
var errWALClosed = errors.New("journal is closed")

// wal is the open journal file and its bookkeeping. Appends happen
// under the owning Store's write lock (then wal.mu); compaction takes
// only wal.mu for the file swap, so rotating never blocks readers.
type wal struct {
	fs   FS
	path string

	mu       sync.Mutex
	f        File
	size     int64 // file size including header
	base     int64 // LSN of the file's first record
	records  int64 // records in the file (since last compaction)
	appends  int64
	syncs    int64
	dirty    bool // bytes written since the last sync
	broken   error
	policy   FsyncPolicy
	interval time.Duration
	lastSync time.Time

	// compaction trigger: append signals notify (non-blocking) when
	// size crosses compactAt.
	compactAt int64
	notify    chan struct{}
}

// append frames payload (length + CRC-32C), writes it, and applies the
// fsync policy. The caller holds the store write lock, so record order
// in the file is apply order in memory.
func (w *wal) append(payload []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken != nil {
		return fmt.Errorf("relstore: journal %s unusable after earlier failure: %w", w.path, w.broken)
	}
	frame := make([]byte, walFrameLen+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, snapCRC))
	copy(frame[walFrameLen:], payload)
	if _, err := w.f.Write(frame); err != nil {
		// The file may now end in a torn record; anything appended after
		// it would be unreachable at recovery. Fail-stop.
		w.broken = err
		return fmt.Errorf("relstore: journal %s: %w", w.path, err)
	}
	w.size += int64(len(frame))
	w.records++
	w.appends++
	w.dirty = true
	switch w.policy {
	case FsyncAlways:
		if err := w.syncLocked(); err != nil {
			return err
		}
	case FsyncInterval:
		if time.Since(w.lastSync) >= w.interval {
			if err := w.syncLocked(); err != nil {
				return err
			}
		}
	}
	if w.notify != nil && w.compactAt > 0 && w.size >= w.compactAt {
		select {
		case w.notify <- struct{}{}:
		default:
		}
	}
	return nil
}

func (w *wal) syncLocked() error {
	if err := w.f.Sync(); err != nil {
		w.broken = err
		return fmt.Errorf("relstore: journal %s: sync: %w", w.path, err)
	}
	w.syncs++
	w.dirty = false
	w.lastSync = time.Now()
	return nil
}

// syncIfDirty is the background ticker's flush for FsyncInterval.
func (w *wal) syncIfDirty() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken != nil || !w.dirty {
		return nil
	}
	return w.syncLocked()
}

// position returns the journal's current (base, records, size): the
// next LSN is base+records and size is the byte cut for compaction.
// Called under the store's write-excluding lock so the cut is
// consistent with the in-memory state.
func (w *wal) position() (base, records, size int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.base, w.records, w.size
}

// truncateTo rewrites the journal keeping only the bytes past cut —
// the records appended after a compaction captured its snapshot — via
// the same temp/sync/rename protocol as snapshots, then reopens for
// append. recs records are dropped from the count and the base LSN
// advances past them.
func (w *wal) truncateTo(cut, recs int64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken != nil {
		return fmt.Errorf("relstore: journal %s unusable after earlier failure: %w", w.path, w.broken)
	}
	all, err := w.fs.ReadFile(w.path)
	if err != nil || int64(len(all)) < cut {
		if err == nil {
			err = fmt.Errorf("journal shrank below compaction cut %d", cut)
		}
		w.broken = err
		return fmt.Errorf("relstore: journal %s: %w", w.path, err)
	}
	w.f.Close()
	nf, size, err := rewriteJournal(w.fs, w.path, w.base+recs, all[cut:])
	if err != nil {
		w.broken = err
		return fmt.Errorf("relstore: journal %s: %w", w.path, err)
	}
	w.f = nf
	w.size = size
	w.base += recs
	w.records -= recs
	w.dirty = false
	w.lastSync = time.Now()
	return nil
}

// close syncs and closes the journal, poisoning further appends.
func (w *wal) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken != nil {
		return w.f.Close()
	}
	var err error
	if w.dirty {
		err = w.f.Sync()
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.broken = errWALClosed
	return err
}

// rewriteJournal atomically replaces path with a fresh journal holding
// tail (already-framed record bytes, first record numbered base) and
// reopens it for append: write header+tail to a temp file, sync,
// rename, open. Used to create a new journal, cut a torn tail at
// recovery, and drop the folded prefix at compaction — in every case
// the bytes kept are synced before the rename, so the swap is atomic
// under the crash model.
func rewriteJournal(fsys FS, path string, base int64, tail []byte) (File, int64, error) {
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return nil, 0, err
	}
	var hdr [walHeaderLen]byte
	copy(hdr[:], walMagic)
	binary.LittleEndian.PutUint32(hdr[len(walMagic):], walVersion)
	binary.LittleEndian.PutUint64(hdr[len(walMagic)+4:], uint64(base))
	if _, err := f.Write(hdr[:]); err == nil && len(tail) > 0 {
		_, err = f.Write(tail)
	}
	if err != nil {
		f.Close()
		fsys.Remove(tmp)
		return nil, 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return nil, 0, err
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return nil, 0, err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return nil, 0, err
	}
	nf, err := fsys.OpenAppend(path)
	if err != nil {
		return nil, 0, err
	}
	return nf, int64(walHeaderLen + len(tail)), nil
}

// Durable is a Store whose mutations are write-ahead journaled: every
// CreateTable, Insert, Upsert and Delete on the embedded Store appends
// a checksummed record to the journal before it applies, so a crash at
// any instant recovers, via OpenDurable, to exactly a prefix of the
// acknowledged mutations — all of them under FsyncAlways. Compact folds the journal into a fresh snapshot. All
// methods are safe for concurrent use alongside the Store's own.
type Durable struct {
	*Store

	fs       FS
	path     string
	w        *wal
	recovery RecoveryInfo

	// compactMu serializes compactions; haveSnap (guarded by it) lets
	// a no-op compaction skip rewriting an unchanged snapshot.
	compactMu   sync.Mutex
	haveSnap    bool
	compactions atomic.Int64

	stop      chan struct{}
	loopDone  chan struct{}
	closeOnce sync.Once
	closeErr  error
}

// OpenDurable opens (or creates) a journaled store: it loads the
// snapshot at path if one exists, replays the journal over it per the
// JOURNAL.md recovery
// rules, and attaches the journal so every further mutation is
// write-ahead logged. Journaled tables must declare a primary key —
// replay is key-addressed — so OpenDurable rejects catalogs with
// keyless tables. Close the store when done; an exiting process that
// skips Close loses nothing under FsyncAlways.
func OpenDurable(path string, opt DurableOptions) (*Durable, error) {
	fsys := opt.FS
	if fsys == nil {
		fsys = osFS{}
	}
	jpath := opt.Journal
	if jpath == "" {
		jpath = path + ".wal"
	}
	if opt.FsyncInterval <= 0 {
		opt.FsyncInterval = 100 * time.Millisecond
	}
	if opt.CompactAt == 0 {
		opt.CompactAt = 4 << 20
	}

	d := &Durable{fs: fsys, path: path, w: &wal{
		fs:       fsys,
		path:     jpath,
		policy:   opt.Fsync,
		interval: opt.FsyncInterval,
		lastSync: time.Now(),
	}}
	if opt.CompactAt > 0 {
		d.w.compactAt = opt.CompactAt
		d.w.notify = make(chan struct{}, 1)
	}

	// 1. Snapshot, if present. Its covered LSN says which journal records
	// it already folds in.
	// 2. Journal header: the LSN of the journal's first record.
	//
	// A journal beginning past the snapshot read just before it is what
	// a compaction by another process on the same files (a second server
	// opened on a live catalog) leaves between the two reads: Compact
	// renames its snapshot first and its rebased journal second. Read
	// the pair again; only a pair that stays mismatched is an error.
	var s *Store
	var snapLSN uint64
	var jdata []byte
	var base int64
	for attempt := 1; ; attempt++ {
		var err error
		if s, snapLSN, jdata, base, err = d.readPair(path, jpath, opt.Open); err != nil {
			return nil, err
		}
		if jdata == nil || uint64(base) <= snapLSN {
			break
		}
		if attempt == 3 {
			return nil, fmt.Errorf("relstore: open durable: journal %s begins at LSN %d but snapshot %s only covers %d — records in between are missing (mismatched snapshot/journal pair?)",
				jpath, base, path, snapLSN)
		}
	}
	for name, t := range s.tableMap() {
		if t.pending != nil && t.pending.err != nil {
			// A poisoned lazy stub carries a placeholder schema; its real
			// one is unreadable. Let the open proceed — the section's
			// sticky error fires on first touch, like any lazy corruption.
			continue
		}
		if len(t.schema.Key) == 0 {
			return nil, fmt.Errorf("relstore: open durable %s: table %q has no primary key; journaled stores require keyed tables", path, name)
		}
	}

	// Journal scan: validate framing, split records, find the torn tail
	// (if any) or reject mid-file corruption.
	var records [][]byte
	validEnd := int64(walHeaderLen)
	torn := false
	if jdata != nil {
		off := int64(walHeaderLen)
		for off < int64(len(jdata)) {
			rem := int64(len(jdata)) - off
			if rem < walFrameLen {
				torn = true // frame header ran off the end: torn tail
				break
			}
			ln := int64(binary.LittleEndian.Uint32(jdata[off:]))
			sum := binary.LittleEndian.Uint32(jdata[off+4:])
			if ln == 0 || ln > walMaxRecord || ln > rem-walFrameLen {
				// Garbage or short framing: nothing past this point can be
				// parsed reliably, and a valid journal never produces it
				// mid-file — treat as the torn tail.
				torn = true
				break
			}
			payload := jdata[off+walFrameLen : off+walFrameLen+ln]
			if crc32.Checksum(payload, snapCRC) != sum {
				if off+walFrameLen+ln == int64(len(jdata)) {
					torn = true // checksum failed on the final record: torn write
					break
				}
				return nil, fmt.Errorf("relstore: open durable: journal %s: corrupt record at offset %d (checksum mismatch mid-journal, valid records follow)", jpath, off)
			}
			records = append(records, payload)
			off += walFrameLen + ln
			validEnd = off
		}
	}

	// 3. Replay the valid records the snapshot does not already cover.
	// Skipping below the covered LSN makes replay exactly-once: after a
	// crash between compaction's snapshot rename and its journal trim,
	// the folded prefix is still in the file but is never re-applied.
	skip := int64(snapLSN) - base
	if skip > int64(len(records)) {
		// The snapshot covers records the journal no longer holds (it was
		// trimmed, or this is a backup stamped mid-journal); nothing to
		// replay.
		skip = int64(len(records))
	}
	deferredCount := 0
	for i, payload := range records[skip:] {
		// Lazy open: a record whose target table is still a cold stub is
		// deferred — appended, in order, to the stub's replay list, which
		// hydration applies strictly exactly-once right after the row
		// decode. Records touch exactly one table each, so partitioning
		// them by table commutes with replay order. Create-table records
		// and records for live tables apply now; a record naming a
		// missing table still fails loudly here.
		if name, ok := walRecordTarget(payload); ok {
			if t, exists := s.tableMap()[name]; exists && t.pending != nil {
				t.pending.deferred = append(t.pending.deferred, payload)
				s.deferredPending++
				deferredCount++
				continue
			}
		}
		if err := s.applyWALRecord(payload); err != nil {
			return nil, fmt.Errorf("relstore: open durable: journal %s: record %d (LSN %d): %w", jpath, int(skip)+i, base+skip+int64(i), err)
		}
	}
	d.recovery.Replayed = len(records) - int(skip) - deferredCount
	d.recovery.Deferred = deferredCount
	if torn {
		d.recovery.Truncated = true
		d.recovery.TruncatedAt = validEnd
	}

	// 4. Make the truncation physical (or create a fresh journal) and
	// open for append. An intact existing journal is opened in place.
	if jdata == nil || torn {
		var tail []byte
		if torn {
			tail = jdata[walHeaderLen:validEnd]
		}
		f, size, err := rewriteJournal(fsys, jpath, base, tail)
		if err != nil {
			return nil, fmt.Errorf("relstore: open durable: journal %s: %w", jpath, err)
		}
		d.w.f = f
		d.w.size = size
	} else {
		f, err := fsys.OpenAppend(jpath)
		if err != nil {
			return nil, fmt.Errorf("relstore: open durable: journal %s: %w", jpath, err)
		}
		d.w.f = f
		d.w.size = int64(len(jdata))
	}
	d.w.base = base
	d.w.records = int64(len(records))

	// 5. Attach: from here on every Store mutation is journaled first.
	s.wal = d.w
	d.Store = s

	if d.w.notify != nil || opt.Fsync == FsyncInterval {
		d.stop = make(chan struct{})
		d.loopDone = make(chan struct{})
		go d.run(opt.Fsync == FsyncInterval, opt.FsyncInterval)
	}
	return d, nil
}

// readPair reads the snapshot at path (an empty store when there is
// none) and the journal at jpath (nil when missing or empty), returning
// the snapshot's covered LSN and the LSN of the journal's first record:
// the snapshot's own for a journal still to be created.
func (d *Durable) readPair(path, jpath string, mode OpenMode) (s *Store, snapLSN uint64, jdata []byte, base int64, err error) {
	s = New()
	d.recovery.SnapshotLoaded, d.haveSnap = false, false
	if data, err := d.fs.ReadFile(path); err == nil {
		if s, snapLSN, err = decodeSnapshot(data, SnapshotOptions{Mode: mode}); err != nil {
			return nil, 0, nil, 0, fmt.Errorf("relstore: open durable: load snapshot %s: %w", path, err)
		}
		d.recovery.SnapshotLoaded = true
		d.haveSnap = true
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, 0, nil, 0, fmt.Errorf("relstore: open durable: %w", err)
	}
	jdata, err = d.fs.ReadFile(jpath)
	switch {
	case errors.Is(err, os.ErrNotExist) || (err == nil && len(jdata) == 0):
		return s, snapLSN, nil, int64(snapLSN), nil
	case err != nil:
		return nil, 0, nil, 0, fmt.Errorf("relstore: open durable: journal %s: %w", jpath, err)
	}
	if len(jdata) < walHeaderLen || string(jdata[:len(walMagic)]) != walMagic {
		return nil, 0, nil, 0, fmt.Errorf("relstore: open durable: journal %s: bad magic (not an ICDB journal)", jpath)
	}
	base = int64(binary.LittleEndian.Uint64(jdata[len(walMagic)+4 : walHeaderLen]))
	if v := binary.LittleEndian.Uint32(jdata[len(walMagic):]); v != walVersion {
		// What an older build's compaction leaves — a bare header at the
		// snapshot's covered LSN — holds nothing to misread: it is
		// rewritten as a fresh journal, like a missing one.
		if len(jdata) == walHeaderLen && uint64(base) == snapLSN {
			return s, snapLSN, nil, base, nil
		}
		return nil, 0, nil, 0, fmt.Errorf("relstore: open durable: journal %s: unsupported version %d (this build reads version %d)", jpath, v, walVersion)
	}
	return s, snapLSN, jdata, base, nil
}

// run is the background loop: auto-compaction on the size-threshold
// signal, and the interval-policy fsync ticker.
func (d *Durable) run(tick bool, interval time.Duration) {
	defer close(d.loopDone)
	var tickC <-chan time.Time
	if tick {
		t := time.NewTicker(interval)
		defer t.Stop()
		tickC = t.C
	}
	notify := d.w.notify
	for {
		select {
		case <-d.stop:
			return
		case <-notify:
			// Best-effort: a failed auto-compaction (disk full, say)
			// leaves the journal growing but intact; the next threshold
			// crossing retries, and mutations keep journaling. Every
			// append at or over the threshold signals, the ones made
			// while a compaction runs included; that compaction folds the
			// bytes they counted, so a signal found waiting after it is
			// acted on only if the journal is still over the threshold —
			// else each crossing would cost a second snapshot rewrite for
			// a handful of records.
			if _, _, size := d.w.position(); size >= d.w.compactAt {
				d.Compact()
			}
		case <-tickC:
			d.w.syncIfDirty()
		}
	}
}

// Recovery reports what OpenDurable found and did.
func (d *Durable) Recovery() RecoveryInfo { return d.recovery }

// Info snapshots the journal's durability counters.
func (d *Durable) Info() DurabilityInfo {
	d.w.mu.Lock()
	policy := d.w.policy.String()
	if d.w.policy == FsyncInterval {
		policy = fmt.Sprintf("interval(%s)", d.w.interval)
	}
	info := DurabilityInfo{
		JournalPath:  d.w.path,
		Policy:       policy,
		JournalBytes: d.w.size,
		Records:      d.w.records,
		Appends:      d.w.appends,
		Syncs:        d.w.syncs,
	}
	d.w.mu.Unlock()
	info.Compactions = d.compactions.Load()
	info.Recovery = d.recovery
	return info
}

// Compact folds the journal into a fresh snapshot: encode the store
// under a read lock (capturing the journal cut the snapshot covers),
// write it atomically, then rewrite the journal without the folded
// prefix. Records appended during the snapshot write are carried into
// the rewritten journal. A crash at any point leaves a recoverable
// pair: before the snapshot rename the old snapshot+journal are
// intact; between the rename and the journal rewrite, recovery
// replays already-folded records over the new snapshot, which is a
// no-op by replay idempotence. When the journal is empty and a
// snapshot exists, Compact does nothing.
func (d *Durable) Compact() error {
	d.compactMu.Lock()
	defer d.compactMu.Unlock()
	// A lazily opened store must hydrate everything first: the snapshot
	// Compact writes covers the journal up to the cut, so no record may
	// still be waiting in a pending section when it is encoded.
	if err := d.Store.HydrateAll(); err != nil {
		return fmt.Errorf("relstore: compact: %w", err)
	}
	d.Store.mu.RLock()
	_, recs, cut := d.w.position()
	if recs == 0 && d.haveSnap {
		d.Store.mu.RUnlock()
		return nil
	}
	data, err := d.Store.encodeSnapshot()
	d.Store.mu.RUnlock()
	if err != nil {
		return fmt.Errorf("relstore: compact: %w", err)
	}
	if err := writeAtomicFS(d.fs, d.path, data); err != nil {
		return fmt.Errorf("relstore: compact: %w", err)
	}
	d.haveSnap = true
	if err := d.w.truncateTo(cut, recs); err != nil {
		return err
	}
	d.compactions.Add(1)
	return nil
}

// Close stops the background loop, syncs, and closes the journal.
// Further mutations on the store fail; reads keep working. Close does
// not compact — callers that want a fresh snapshot (icdbd's shutdown
// drain) call Compact first.
func (d *Durable) Close() error {
	d.closeOnce.Do(func() {
		if d.stop != nil {
			close(d.stop)
			<-d.loopDone
		}
		d.closeErr = d.w.close()
	})
	return d.closeErr
}

// --- record encoding -------------------------------------------------

// logWAL builds one record payload and appends it to the journal; a
// Store without a journal attached skips it for free. Callers hold the
// store write lock and call logWAL after validating the mutation and
// before applying it (write-ahead ordering), so a row the codec cannot
// encode fails the mutation before anything applies.
func (s *Store) logWAL(build func(w *snapWriter) error) error {
	if s.wal == nil || s.replaying {
		// replaying: hydration is re-applying records that are already in
		// the journal — appending them again would double them on the
		// next recovery.
		return nil
	}
	var buf bytes.Buffer
	if err := build(&snapWriter{buf: &buf}); err != nil {
		return fmt.Errorf("relstore: journal: %w", err)
	}
	return s.wal.append(buf.Bytes())
}

// --- record decoding and replay --------------------------------------

// walRecordTarget peeks the table a journal record addresses, without
// decoding the record body. Only row records have a target table that
// may be cold; a create-table record returns ok=false and always
// applies at open.
func walRecordTarget(payload []byte) (name string, ok bool) {
	r := &snapReader{b: payload} // no aliased string: the name is copied out
	switch r.u8() {
	case walOpInsert, walOpUpsert, walOpDelete:
		n := r.str()
		return n, r.err == nil && n != ""
	}
	return "", false
}

// applyWALRecord replays one journal record. Replay never re-journals:
// OpenDurable applies records before the journal is attached, and
// hydration's deferred replay runs with s.replaying set. Replay is
// exactly-once — the LSN skip in OpenDurable guarantees the store is
// in precisely the state that preceded this record — so every replay
// path is strict: a record that does not apply cleanly means the
// snapshot/journal pair is inconsistent, and recovery fails loudly
// rather than guessing.
func (s *Store) applyWALRecord(payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applyWALRecordLocked(payload)
}

func (s *Store) applyWALRecordLocked(payload []byte) error {
	r := &snapReader{b: payload, s: string(payload)}
	op := r.u8()
	if op == walOpCreateTable {
		sc := r.schema()
		if err := r.done(); err != nil {
			return err
		}
		return s.createTableLocked(sc)
	}
	name := r.str()
	if r.err != nil {
		return r.err
	}
	// A row record is decoded against its table's schema, which is the
	// schema it was written with: replay is exactly-once, so the table
	// is in the state that preceded the record.
	t, err := s.tableLocked(name)
	if err != nil {
		return err
	}
	switch op {
	case walOpInsert, walOpUpsert:
		row := r.row(t.schema.Columns)
		if err := r.done(); err != nil {
			return err
		}
		if op == walOpInsert {
			return s.insertLocked(name, row)
		}
		_, err := s.upsertLocked(name, row)
		return err
	case walOpDelete:
		n, keyCols := int(r.u32()), t.keyColumns()
		var keys []string
		for i := 0; i < n && r.err == nil; i++ {
			keys = append(keys, joinRow(t.schema.Key, r.row(keyCols)))
		}
		if err := r.done(); err != nil {
			return err
		}
		return s.replayDeleteLocked(t, keys)
	default:
		return fmt.Errorf("unknown opcode %d", op)
	}
}

// replayDeleteLocked re-applies one Delete record: it resolves each
// primary key to its rowid and removes them through removeLocked, as
// Delete did. Replay is exactly-once, so every key must resolve.
func (s *Store) replayDeleteLocked(t *table, keys []string) error {
	var victims []int64
	for _, k := range keys {
		id, ok := t.data.keyIndex[k]
		if !ok {
			return fmt.Errorf("delete record references missing row (key %q)", keyValues(k))
		}
		victims = append(victims, id)
	}
	if len(victims) > 0 {
		s.removeLocked(t, victims)
	}
	return nil
}

// Binary snapshot persistence. A snapshot is the whole-store wire format
// described in SNAPSHOT.md: a magic/version header, a section directory
// locating one length-prefixed section per table (schema header followed
// by typed row encoding in insertion order), and a CRC-32 trailer over
// everything before it.
//
// The snapshot is the store's one on-disk catalog format (JSON is an
// interchange format handled outside this package, by icdbq
// export/import). The writer emits rows already in canonical form, and
// OpenSnapshot is a trusted fast path: after the checksum verifies,
// rows are decoded straight into table storage and the primary-key
// index, secondary indexes, and insertion-order id slice are bulk-built
// — no per-row Insert validation, no incremental index maintenance, no
// re-sorting (rowids are assigned sequentially in section order, so
// ascending order is insertion order by construction).
//
// The section directory makes every table section independently
// locatable (byte offset and length) and verifiable (per-section
// CRC-32C), which is what the two open modes ride on: eager open decodes
// sections in parallel across a worker pool — sections are independent
// by construction — and lazy open (OpenLazy) decodes only the directory
// and each section's schema header, materializing a table's rows and
// indexes on first touch (lazy.go).
package relstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

const (
	// snapMagic opens every snapshot.
	snapMagic = "ICDBSNAP"
	// snapVersion is the format version: the one this build writes and
	// the only one it reads. The format is versioned, not
	// self-describing beyond the schema header, so any other version is
	// rejected before anything past the header is interpreted; catalogs
	// cross versions through icdbq export / import (SNAPSHOT.md has the
	// policy and the version history).
	snapVersion = 4
	// snapTrailerLen is the CRC-32C trailer size.
	snapTrailerLen = 4
	// snapDirFixed is the fixed part of one directory entry — u64 offset,
	// u64 length, u32 section CRC — after the length-prefixed name.
	snapDirFixed = 20
)

// snapCRC is the Castagnoli table: CRC-32C has dedicated CPU
// instructions on amd64/arm64, so checksumming a multi-megabyte catalog
// costs a fraction of a millisecond.
var snapCRC = crc32.MakeTable(crc32.Castagnoli)

// snapHeaderLen is magic + version; the covered LSN, table count, and
// directory follow as ordinary reader payload.
const snapHeaderLen = len(snapMagic) + 4

// OpenMode selects how much of a snapshot an open decodes up front.
type OpenMode int

const (
	// OpenEager decodes every table section at open (the default),
	// in parallel across a worker pool.
	OpenEager OpenMode = iota
	// OpenLazy decodes only the section directory and each table's
	// schema header at open, keeping the snapshot's byte buffer; a
	// table's rows and indexes materialize on first touch (see lazy.go).
	OpenLazy
)

// String names the mode the way the icdbd -open flag spells it.
func (m OpenMode) String() string {
	if m == OpenLazy {
		return "lazy"
	}
	return "eager"
}

// SnapshotOptions configures how OpenSnapshot (and OpenDurable, via
// DurableOptions.Open) decodes a snapshot. The zero value is a full
// eager decode with one worker per CPU.
type SnapshotOptions struct {
	// Mode is the open mode; the zero value is OpenEager.
	Mode OpenMode
	// Workers bounds the eager decoder's parallelism: 0 means
	// GOMAXPROCS, 1 decodes serially. Lazy open ignores it (hydration
	// is per-table, on the toucher's goroutine).
	Workers int
}

// SaveSnapshot writes the whole store to path in the binary snapshot
// format, atomically: the bytes are staged in a temp file in path's
// directory, fsynced, and renamed over path, so a crash mid-save can
// never truncate or corrupt an existing file. Tables are written in
// sorted name order and rows in insertion order, so saving an unchanged
// store is byte-for-byte deterministic — a lazily opened store is fully
// hydrated first, so lazy and eager opens of one file save identically.
//
// The read lock is held through the rename (not just the encode):
// concurrent saves of one store therefore always write identical bytes,
// so whichever rename lands last cannot replace a newer state with a
// staler one.
func (s *Store) SaveSnapshot(path string) error {
	if s.lazy {
		if err := s.HydrateAll(); err != nil {
			return fmt.Errorf("relstore: save snapshot: %w", err)
		}
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	data, err := s.encodeSnapshot()
	if err != nil {
		return fmt.Errorf("relstore: save snapshot: %w", err)
	}
	return writeFileAtomic(path, data)
}

// encodeSnapshot renders the store under the read lock. The covered-LSN
// header field is the journal position when a journal is attached
// (appends hold the write lock, so the position is consistent with the
// encoded rows) and zero otherwise — a plain store has no journal to
// cover.
func (s *Store) encodeSnapshot() ([]byte, error) {
	for name, t := range s.tableMap() {
		if t.pending != nil {
			return nil, fmt.Errorf("table %q is still pending hydration (HydrateAll before encoding)", name)
		}
	}
	var lsn uint64
	if s.wal != nil {
		base, records, _ := s.wal.position()
		lsn = uint64(base + records)
	}
	names := make([]string, 0, len(s.tableMap()))
	for n := range s.tableMap() {
		names = append(names, n)
	}
	sort.Strings(names)

	// Exact pre-size: a dry pass sums every section's encoded size —
	// including per-cell string lengths, which the old estimate ignored —
	// so the buffer is grown once and never doubles mid-encode, and any
	// drift between sectionSize and encodeSection fails loudly below.
	secSize := make([]int, len(names))
	total := snapHeaderLen + 8 + 4 // header + covered LSN + table count
	for i, n := range names {
		sz, err := s.tableMap()[n].sectionSize()
		if err != nil {
			return nil, err
		}
		secSize[i] = sz
		total += 4 + len(n) + snapDirFixed + sz
	}
	total += 4 + snapTrailerLen // directory CRC + trailer

	var buf bytes.Buffer
	buf.Grow(total)
	w := &snapWriter{buf: &buf}
	w.raw([]byte(snapMagic))
	w.u32(snapVersion)
	w.u64(lsn)
	w.u32(uint32(len(names)))
	// Directory first, offsets/lengths/CRCs backpatched as sections land:
	// names are known up front, so the directory's size — and with it
	// every section offset — is fixed before any row is written.
	patch := make([]int, len(names))
	for i, n := range names {
		w.str(n)
		patch[i] = buf.Len()
		w.u64(0) // section offset, backpatched
		w.u64(0) // section length, backpatched
		w.u32(0) // section CRC, backpatched
	}
	dirCRCAt := buf.Len()
	w.u32(0) // directory CRC, backpatched
	for i, n := range names {
		start := buf.Len()
		if err := s.tableMap()[n].encodeSection(w); err != nil {
			return nil, err
		}
		if got := buf.Len() - start; got != secSize[i] {
			return nil, fmt.Errorf("internal error: table %q encoded to %d bytes, pre-sized %d", n, got, secSize[i])
		}
		b := buf.Bytes()
		binary.LittleEndian.PutUint64(b[patch[i]:], uint64(start))
		binary.LittleEndian.PutUint64(b[patch[i]+8:], uint64(secSize[i]))
		binary.LittleEndian.PutUint32(b[patch[i]+16:], crc32.Checksum(b[start:buf.Len()], snapCRC))
	}
	b := buf.Bytes()
	binary.LittleEndian.PutUint32(b[dirCRCAt:], crc32.Checksum(b[:dirCRCAt], snapCRC))
	var trailer [snapTrailerLen]byte
	binary.LittleEndian.PutUint32(trailer[:], crc32.Checksum(buf.Bytes(), snapCRC))
	buf.Write(trailer[:])
	if buf.Len() != total {
		return nil, fmt.Errorf("internal error: snapshot encoded to %d bytes, pre-sized %d", buf.Len(), total)
	}
	return buf.Bytes(), nil
}

// sectionSize computes the exact byte size encodeSection will emit for
// this table: the schema header, then the rows from the per-row fixed
// width plus every string cell's actual length. One pass over the rows,
// no allocation per row — the price of never reallocating the encode
// buffer.
func (t *table) sectionSize() (int, error) {
	sc := &t.schema
	// The header is measured by writing it: its widths are the codec's.
	var hdr bytes.Buffer
	(&snapWriter{buf: &hdr}).schema(*sc)
	d := t.data
	n := hdr.Len() + 4 + 8 + minRowSize(*sc)*len(d.ids) // + row count + payload length
	var strCols []string
	for _, c := range sc.Columns {
		if c.Type == TString {
			strCols = append(strCols, c.Name)
		}
	}
	if len(strCols) > 0 {
		for _, id := range d.ids {
			r := d.rows[id]
			for _, cn := range strCols {
				v, ok := r[cn].(string)
				if !ok {
					return 0, fmt.Errorf("table %q column %q: cannot encode %T value in string column",
						sc.Table, cn, r[cn])
				}
				n += len(v)
			}
		}
	}
	return n, nil
}

// encodeSection writes one table in a single pass over its rows: the row
// payload's length prefix is reserved up front and backpatched once the
// rows are written, so every column value is fetched (and its canonical
// Go type verified) exactly once.
func (t *table) encodeSection(w *snapWriter) error {
	w.schema(t.schema)
	d := t.data
	w.u32(uint32(len(d.ids)))
	lenAt := w.buf.Len()
	w.u64(0) // payload length, backpatched below
	start := w.buf.Len()
	for _, id := range d.ids {
		if err := w.row(t.schema.Table, t.schema.Columns, d.rows[id]); err != nil {
			return err
		}
	}
	binary.LittleEndian.PutUint64(w.buf.Bytes()[lenAt:], uint64(w.buf.Len()-start))
	return nil
}

// OpenSnapshot reads a store previously written by SaveSnapshot. It is
// the trusted-snapshot fast path: after the checksum verifies, rows are
// decoded directly into table storage and every index is bulk-built,
// skipping the per-row validation Insert performs (the writer only
// emits canonical, schema-checked rows, and the checksum rules out torn
// or bit-flipped files). opt.Mode selects a full eager decode (the zero
// value; Workers bounds its parallelism) or OpenLazy, which defers each
// table's decode to first touch. Malformed input — bad magic, any
// version but the current one, truncation, checksum mismatch, or
// inconsistent section lengths — fails with a descriptive error, never
// a panic.
func OpenSnapshot(path string, opt SnapshotOptions) (*Store, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("relstore: open snapshot: %w", err)
	}
	s, _, err := decodeSnapshot(data, opt)
	if err != nil {
		return nil, fmt.Errorf("relstore: open snapshot %s: %w", path, err)
	}
	return s, nil
}

// decodeSnapshot decodes a snapshot along with its covered LSN — the
// journal sequence number up to which (exclusive) the snapshot already
// reflects every record. It verifies the header and directory, then
// either materializes every section (eager, optionally in parallel) or
// builds lazy stubs that hydrate on first touch. Eager open verifies the
// whole-file trailer first; lazy open trusts the directory CRC now and
// each section's CRC at its hydration, so one corrupt section fails only
// the table it holds.
func decodeSnapshot(data []byte, opt SnapshotOptions) (*Store, uint64, error) {
	// Magic before length, on whatever prefix is there: a two-byte "{}"
	// is not a truncated snapshot.
	if n := min(len(data), len(snapMagic)); string(data[:n]) != snapMagic[:n] {
		return nil, 0, fmt.Errorf("bad magic %q (not a snapshot; a JSON catalog is read with icdbq import)", data[:n])
	}
	if len(data) < snapHeaderLen+4+snapTrailerLen {
		return nil, 0, fmt.Errorf("%d-byte file is too short to be a snapshot (truncated?)", len(data))
	}
	// Version before checksum: another format version may change anything
	// past the header (including the trailer), so "unsupported version"
	// must win over a misleading "checksum mismatch".
	if v := binary.LittleEndian.Uint32(data[len(snapMagic):snapHeaderLen]); v != snapVersion {
		return nil, 0, fmt.Errorf("unsupported snapshot version %d (this build reads version %d)", v, snapVersion)
	}
	if opt.Mode != OpenLazy {
		body, trailer := data[:len(data)-snapTrailerLen], data[len(data)-snapTrailerLen:]
		if sum := crc32.Checksum(body, snapCRC); sum != binary.LittleEndian.Uint32(trailer) {
			return nil, 0, fmt.Errorf("checksum mismatch (want %08x, file carries %08x): snapshot is corrupted or truncated",
				sum, binary.LittleEndian.Uint32(trailer))
		}
	}
	lsn, entries, err := decodeSnapDirectory(data)
	if err != nil {
		return nil, 0, err
	}
	s := New()
	m := make(map[string]*table, len(entries))
	if opt.Mode == OpenLazy {
		s.lazy = true
		for _, e := range entries {
			m[e.name] = lazyStub(e, data[e.off:e.off+e.len])
		}
		s.tables.Store(&m)
		return s, lsn, nil
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(entries) {
		workers = len(entries)
	}
	tables := make([]*table, len(entries))
	errs := make([]error, len(entries))
	decodeOne := func(i int, boxes *boxCache) {
		e := entries[i]
		tables[i], errs[i] = decodeSectionTable(data[e.off:e.off+e.len], e.name, boxes)
	}
	if workers <= 1 {
		boxes := newBoxCache()
		for i := range entries {
			decodeOne(i, boxes)
		}
	} else {
		// Work-stealing over a shared cursor: sections are wildly uneven
		// (one big relation, several small ones), so static striping would
		// idle workers. Each worker keeps a private box cache — values
		// repeat within a table far more than across tables.
		var next atomic.Int64
		var wg sync.WaitGroup
		for k := 0; k < workers; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				boxes := newBoxCache()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(entries) {
						return
					}
					decodeOne(i, boxes)
				}
			}()
		}
		wg.Wait()
	}
	for i, err := range errs {
		if err != nil {
			return nil, 0, err
		}
		m[entries[i].name] = tables[i]
	}
	s.tables.Store(&m)
	return s, lsn, nil
}

// snapDirEntry locates one table section in the file: absolute
// byte offset, length, and the section's own CRC-32C.
type snapDirEntry struct {
	name string
	off  int
	len  int
	crc  uint32
}

// decodeSnapDirectory parses and verifies the header and section
// directory: entry bounds, contiguity (sections tile the span between
// the directory and the trailer exactly, so truncation is caught even
// without the whole-file checksum), duplicate names, and the
// directory's own CRC — which is what lazy open trusts in place of the
// whole-file trailer.
func decodeSnapDirectory(data []byte) (uint64, []snapDirEntry, error) {
	r := &snapReader{b: data, off: snapHeaderLen} // no aliased string: names are copied out
	lsn := r.u64()
	nTables := int(r.u32())
	if r.err == nil && (nTables < 0 || nTables > (len(data)-r.off)/(4+snapDirFixed)) {
		return 0, nil, fmt.Errorf("table count %d is impossible for a %d-byte file", nTables, len(data))
	}
	entries := make([]snapDirEntry, 0, nTables)
	seen := make(map[string]bool, nTables)
	for i := 0; i < nTables && r.err == nil; i++ {
		e := snapDirEntry{name: r.str()}
		e.off = int(int64(r.u64()))
		e.len = int(int64(r.u64()))
		e.crc = r.u32()
		if r.err != nil {
			break
		}
		// No table is ever created without a name, and the poisoned stub
		// lazy open builds for an undecodable section needs one.
		if e.name == "" {
			return 0, nil, fmt.Errorf("directory entry %d has an empty table name", i)
		}
		if seen[e.name] {
			return 0, nil, fmt.Errorf("directory lists table %q twice", e.name)
		}
		seen[e.name] = true
		entries = append(entries, e)
	}
	if r.err != nil {
		return 0, nil, r.err
	}
	dirCRCAt := r.off
	wantDir := r.u32()
	if r.err != nil {
		return 0, nil, r.err
	}
	if sum := crc32.Checksum(data[:dirCRCAt], snapCRC); sum != wantDir {
		return 0, nil, fmt.Errorf("directory checksum mismatch (want %08x, file carries %08x): snapshot header is corrupted or truncated",
			sum, wantDir)
	}
	next := r.off
	for _, e := range entries {
		if e.len < 0 || e.len > len(data) || e.off != next {
			return 0, nil, fmt.Errorf("table %q: section at offset %d (%d bytes) does not tile the file (expected offset %d)",
				e.name, e.off, e.len, next)
		}
		next += e.len
	}
	if next != len(data)-snapTrailerLen {
		return 0, nil, fmt.Errorf("%d byte(s) of trailing data after the last table section", len(data)-snapTrailerLen-next)
	}
	return lsn, entries, nil
}

// decodeSectionTable decodes one self-contained section into a
// standalone table: schema header, validation, bulk row build. It needs
// no Store, which is what lets eager workers decode sections
// concurrently and hydration decode one section under the store lock.
func decodeSectionTable(section []byte, wantName string, boxes *boxCache) (*table, error) {
	// One string copy per section (not per value): workers copy their own
	// sections, so the conversions run in parallel too.
	r := &snapReader{b: section, s: string(section)}
	sc, nRows, payload, err := decodeSectionSchema(r)
	if err != nil {
		return nil, err
	}
	if sc.Table != wantName {
		return nil, fmt.Errorf("section declares table %q but the directory names %q", sc.Table, wantName)
	}
	t, err := newTable(sc)
	if err != nil {
		return nil, err
	}
	if err := t.decodeSectionRows(r, nRows, payload, boxes); err != nil {
		return nil, err
	}
	if r.off != len(section) {
		return nil, fmt.Errorf("table %q: %d byte(s) of trailing data in section", sc.Table, len(section)-r.off)
	}
	return t, nil
}

// lazyStub builds the unmaterialized table for one directory entry. The
// schema header is decoded now — it is O(columns), and it lets SchemaOf,
// Tables, and OpenDurable's keyed-table check answer without touching
// rows — while the row payload stays raw until first touch. A section
// whose schema cannot even be decoded still opens: the stub is poisoned,
// so every data access fails with the decode error while the rest of the
// catalog stays usable (its checksum would fail at hydration anyway —
// only the directory is verified at lazy open).
func lazyStub(e snapDirEntry, section []byte) *table {
	r := &snapReader{b: section} // no aliased string: schema strings are copied, rows stay raw
	sc, nRows, payload, err := decodeSectionSchema(r)
	if err == nil && sc.Table != e.name {
		err = fmt.Errorf("section declares table %q but the directory names %q", sc.Table, e.name)
	}
	if err == nil && r.off+payload != len(section) {
		err = fmt.Errorf("section is %d bytes but schema + declared %d-byte row payload end at %d",
			len(section), payload, r.off+payload)
	}
	var t *table
	if err == nil {
		t, err = newTable(sc)
	}
	if err != nil {
		t, _ = newTable(Schema{Table: e.name, Columns: []Column{{Name: "corrupt", Type: TString}}})
		t.pending = &pendingSection{err: fmt.Errorf("relstore: table %q: corrupt snapshot section: %w", e.name, err)}
		return t
	}
	t.pending = &pendingSection{raw: section, crc: e.crc, rowsOff: r.off, nRows: nRows, payload: payload}
	return t
}

// decodeSectionSchema reads a section's schema header, row count, and
// declared payload length, leaving r at the first row. The payload bound
// and minimum-row-size sanity checks run here, before any per-row
// allocation.
func decodeSectionSchema(r *snapReader) (Schema, int, int, error) {
	sc := r.schema()
	nRows := int(r.u32())
	payload := int(r.u64())
	if r.err != nil {
		return sc, 0, 0, r.err
	}
	if rem := len(r.b) - r.off; payload < 0 || payload > rem {
		return sc, 0, 0, fmt.Errorf("table %q: row payload of %d bytes exceeds the %d remaining", sc.Table, payload, rem)
	}
	if min := minRowSize(sc); nRows < 0 || (min > 0 && nRows > payload/min) {
		return sc, 0, 0, fmt.Errorf("table %q: row count %d is impossible for a %d-byte payload", sc.Table, nRows, payload)
	}
	return sc, nRows, payload, nil
}

// decodeSectionRows bulk-builds t's storage and indexes from r,
// positioned at the section's first row. t must be freshly constructed
// (newTable) and unobserved by readers.
func (t *table) decodeSectionRows(r *snapReader, nRows, payload int, boxes *boxCache) error {
	sc := t.schema
	d := t.data
	start := r.off
	d.ids = make([]int64, nRows)
	d.rows = make(map[int64]Row, nRows)
	if len(sc.Key) > 0 {
		d.keyIndex = make(map[string]int64, nRows)
	}
	// Single string key column is the dominant shape (implementations,
	// components); its index key needs no joining, and renderKeyPart is
	// allocation-free for strings without escapes.
	singleStrKey := len(sc.Key) == 1 && t.cols[sc.Key[0]] == TString
	// String interning is adaptive per column: the first internSample
	// rows are a trial, and columns whose values never repeat there
	// (names, IIF sources) stop paying the intern lookup — hashing a
	// unique multi-hundred-byte source string twice per row is pure
	// overhead.
	const internSample = 64
	strHits := make([]int, len(sc.Columns))
	strOff := make([]bool, len(sc.Columns))
	for i := 0; i < nRows; i++ {
		row := make(Row, len(sc.Columns))
		for ci, c := range sc.Columns {
			if strOff[ci] {
				row[c.Name] = r.value(c.Type, nil)
				continue
			}
			// Only a hit leaves the string cache its size.
			n := len(boxes.strs)
			row[c.Name] = r.value(c.Type, boxes)
			if len(boxes.strs) == n {
				strHits[ci]++
			}
		}
		if i == internSample-1 {
			for ci, c := range sc.Columns {
				if c.Type == TString && strHits[ci] == 0 {
					strOff[ci] = true
				}
			}
		}
		if r.err != nil {
			return fmt.Errorf("table %q row %d: %w", sc.Table, i, r.err)
		}
		id := int64(i)
		d.rows[id] = row
		d.ids[i] = id
		if singleStrKey {
			d.keyIndex[renderKeyPart(row[sc.Key[0]])] = id
		} else if len(sc.Key) > 0 {
			d.keyIndex[joinRow(sc.Key, row)] = id
		}
		// Rowids ascend with the loop, so plain appends keep every
		// posting list sorted.
		for _, ix := range d.indexes {
			k := joinRow(ix.cols, row)
			ix.postings[k] = append(ix.postings[k], id)
		}
	}
	t.nextID = int64(nRows)
	if len(sc.Key) > 0 && len(d.keyIndex) != nRows {
		return fmt.Errorf("table %q: %d row(s) collapse onto %d primary key(s) — duplicate keys in snapshot",
			sc.Table, nRows, len(d.keyIndex))
	}
	if got := r.off - start; got != payload {
		return fmt.Errorf("table %q: row payload length %d does not match declared %d", sc.Table, got, payload)
	}
	return nil
}

// minRowSize is the smallest possible encoding of one row of sc, used to
// bound row counts before any per-row allocation happens.
func minRowSize(sc Schema) int {
	n := 0
	for _, c := range sc.Columns {
		n += valueWidth(c.Type)
	}
	return n
}

// boxCache dedups the interface boxes materialized while decoding.
// Catalog columns repeat values heavily (component types, styles,
// function-set strings, quantized area/delay estimates), and a boxed
// string or float64 is an allocation each — sharing one immutable box
// per distinct value is most of the difference between ~75k and ~750k
// allocations per 10k-implementation round-trip. Sound because boxed
// values are immutable and rows are cloned on the way out of the store.
type boxCache struct {
	strs   map[string]any
	ints   map[int]any
	floats map[float64]any
}

func newBoxCache() *boxCache {
	return &boxCache{
		strs:   make(map[string]any),
		ints:   make(map[int]any),
		floats: make(map[float64]any),
	}
}

func (bc *boxCache) str(v string) any {
	if b, ok := bc.strs[v]; ok {
		return b
	}
	b := any(v)
	bc.strs[v] = b
	return b
}

func (bc *boxCache) intv(v int) any {
	if b, ok := bc.ints[v]; ok {
		return b
	}
	b := any(v)
	bc.ints[v] = b
	return b
}

func (bc *boxCache) float(v float64) any {
	if b, ok := bc.floats[v]; ok {
		return b
	}
	b := any(v)
	bc.floats[v] = b
	return b
}

// writeFileAtomic writes data to path via a temp file in the same
// directory: write, fsync, close, rename. Either the old file or the
// complete new one is visible at path at every instant; a crash can at
// worst leave a stray .tmp- file behind. Permissions follow os.WriteFile
// semantics: an existing destination keeps its mode, a fresh one gets
// 0644 filtered through the umask.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	base := filepath.Base(path)
	prevMode, hadPrev := os.FileMode(0), false
	if fi, err := os.Stat(path); err == nil {
		prevMode, hadPrev = fi.Mode().Perm(), true
	}
	var f *os.File
	var tmp string
	for i := 0; ; i++ {
		tmp = filepath.Join(dir, fmt.Sprintf(".%s.tmp-%d-%d", base, os.Getpid(), rand.Uint64()))
		var err error
		// O_EXCL with the target mode: a fresh file's permissions pass
		// through the umask here, exactly like os.WriteFile's would.
		f, err = os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if err == nil {
			break
		}
		if !os.IsExist(err) || i >= 16 {
			return fmt.Errorf("relstore: save %s: %w", path, err)
		}
	}
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("relstore: save %s: %w", path, err)
	}
	if _, err := f.Write(data); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if hadPrev {
		// Overwriting keeps the destination's existing permissions, as a
		// plain in-place rewrite would have.
		if err := f.Chmod(prevMode); err != nil {
			return fail(err)
		}
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("relstore: save %s: %w", path, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("relstore: save %s: %w", path, err)
	}
	return nil
}

package relstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"testing"
)

// fuzzSnapshotSeed is a small real snapshot: two tables, every column
// type, a composite key, a secondary index, strings with the key
// separator and escape bytes.
func fuzzSnapshotSeed(f *testing.F) []byte {
	f.Helper()
	s := New()
	if err := s.CreateTable(Schema{
		Table: "impls",
		Columns: []Column{
			{Name: "name", Type: TString}, {Name: "comp", Type: TString},
			{Name: "size", Type: TInt}, {Name: "area", Type: TFloat}, {Name: "param", Type: TBool},
		},
		Key:     []string{"comp", "name"},
		Indexes: []Index{{Columns: []string{"size"}}},
	}); err != nil {
		f.Fatal(err)
	}
	for i, name := range []string{"add8", "nul\x00name", `back\slash`, ""} {
		if err := s.Insert("impls", Row{"name": name, "comp": "adder", "size": i % 2, "area": 1.5 * float64(i), "param": i%2 == 0}); err != nil {
			f.Fatal(err)
		}
	}
	if err := s.CreateTable(Schema{Table: "log", Columns: []Column{{Name: "msg", Type: TString}}}); err != nil {
		f.Fatal(err)
	}
	if err := s.Insert("log", Row{"msg": "hello"}); err != nil {
		f.Fatal(err)
	}
	data, err := s.encodeSnapshot()
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// sealSection wraps section in an otherwise valid one-table snapshot —
// header, directory entry under the name the section itself declares,
// section CRC, directory CRC, trailer — so mutated section bytes reach
// the schema and row decoders instead of dying at a checksum.
func sealSection(section []byte) []byte {
	name := "t"
	if len(section) >= 4 {
		if n := int(binary.LittleEndian.Uint32(section)); n <= len(section)-4 {
			name = string(section[4 : 4+n])
		}
	}
	var buf bytes.Buffer
	w := &snapWriter{buf: &buf}
	w.raw([]byte(snapMagic))
	w.u32(snapVersion)
	w.u64(0)
	w.u32(1)
	w.str(name)
	w.u64(uint64(buf.Len() + snapDirFixed + 4))
	w.u64(uint64(len(section)))
	w.u32(crcOf(section))
	w.u32(crcOf(buf.Bytes()))
	w.raw(section)
	w.u32(crcOf(buf.Bytes()))
	return buf.Bytes()
}

// FuzzOpenSnapshot feeds arbitrary bytes to the one snapshot reader,
// twice: as a whole file, and as one table section sealed inside valid
// framing. Either way an eager decode and a lazy open + HydrateAll must
// return a store or a descriptive error — never panic, never allocate
// in proportion to a forged count or length rather than to the input —
// and when the eager decode accepts a file, the lazy one must accept it
// too and re-encode to the same bytes.
func FuzzOpenSnapshot(f *testing.F) {
	seed := fuzzSnapshotSeed(f)
	f.Add(seed)
	for _, n := range []int{0, 7, 11, 12, 20, 24, 40, len(seed) / 2, len(seed) - 5, len(seed) - 1} {
		f.Add(seed[:n])
	}
	for _, off := range []int{0, 8, 12, 20, 24, 30, len(seed) / 3, len(seed) / 2, len(seed) - 2} {
		flipped := append([]byte(nil), seed...)
		flipped[off] ^= 0x41
		f.Add(flipped)
	}
	_, entries, err := decodeSnapDirectory(seed)
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range entries {
		f.Add(seed[e.off : e.off+e.len]) // a bare section: exercises the sealed leg from a valid start
	}
	f.Add([]byte(`{"impls": {"schema": {"Table": "impls"}, "rows": []}}`))
	// A section declaring the empty table name: sealed, its directory
	// entry is nameless too, which no table stub can be built for.
	f.Add([]byte("\x00\x00\x00\x000"))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, file := range [][]byte{data, sealSection(data)} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			eager, _, eagerErr := decodeSnapshot(file, SnapshotOptions{Workers: 1})
			lazy, _, lazyErr := decodeSnapshot(file, SnapshotOptions{Mode: OpenLazy})
			if lazyErr == nil {
				lazyErr = lazy.HydrateAll()
			}
			runtime.ReadMemStats(&after)
			// A decoded row costs a few hundred bytes per input byte at
			// worst (a one-bool-column table: a map per byte); a forged
			// count believed costs gigabytes.
			if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(4<<20+2048*len(file)); grew > limit {
				t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(file), grew, limit)
			}
			for _, err := range []error{eagerErr, lazyErr} {
				if err != nil && err.Error() == "" {
					t.Fatal("empty error message")
				}
			}
			if eagerErr != nil {
				continue
			}
			if lazyErr != nil {
				t.Fatalf("eager decode accepted what lazy open + hydration rejects: %v", lazyErr)
			}
			a, err := eager.encodeSnapshot()
			if err != nil {
				t.Fatalf("re-encode of an accepted snapshot: %v", err)
			}
			b, err := lazy.encodeSnapshot()
			if err != nil {
				t.Fatalf("re-encode of an accepted lazy snapshot: %v", err)
			}
			if !bytes.Equal(a, b) {
				t.Fatal("eager and lazy decodes of one file re-encode differently")
			}
		}
	})
}

// memFS is a map-backed FS for the journal fuzzer: no disk, no
// goroutines, every write kept.
type memFS map[string][]byte

type memFile struct {
	fs   memFS
	path string
}

func (m memFS) ReadFile(path string) ([]byte, error) {
	b, ok := m[path]
	if !ok {
		return nil, fmt.Errorf("memfs: %s: %w", path, os.ErrNotExist)
	}
	return b, nil
}

func (m memFS) Create(path string) (File, error) {
	m[path] = nil
	return &memFile{m, path}, nil
}

func (m memFS) OpenAppend(path string) (File, error) {
	if _, ok := m[path]; !ok {
		return nil, fmt.Errorf("memfs: %s: %w", path, os.ErrNotExist)
	}
	return &memFile{m, path}, nil
}

func (m memFS) Rename(oldpath, newpath string) error {
	m[newpath] = m[oldpath]
	delete(m, oldpath)
	return nil
}

func (m memFS) Remove(path string) error {
	delete(m, path)
	return nil
}

func (f *memFile) Write(b []byte) (int, error) {
	f.fs[f.path] = append(f.fs[f.path], b...)
	return len(b), nil
}

func (f *memFile) Sync() error  { return nil }
func (f *memFile) Close() error { return nil }

// fuzzJournalSeed returns a small keyed snapshot and a real journal
// over it: every record kind, including a multi-row delete and a second
// table created with an index, written and emptied.
func fuzzJournalSeed(f *testing.F) (snap, wal []byte) {
	f.Helper()
	s := New()
	if err := s.CreateTable(durableSchema()); err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Insert("impls", Row{"name": fmt.Sprintf("i%d", i), "comp": "alu", "size": i, "area": 1.5 * float64(i), "param": i%2 == 0}); err != nil {
			f.Fatal(err)
		}
	}
	snap, err := s.encodeSnapshot()
	if err != nil {
		f.Fatal(err)
	}
	fsys := memFS{"cat.snap": snap}
	d, err := OpenDurable("cat.snap", DurableOptions{FS: fsys, CompactAt: -1})
	if err != nil {
		f.Fatal(err)
	}
	steps := []func() error{
		func() error {
			return d.Insert("impls", Row{"name": "nul\x00", "comp": "alu", "size": 7, "area": 2.0, "param": true})
		},
		func() error {
			return d.Upsert("impls", Row{"name": "i1", "comp": "alu", "size": 9, "area": 0.5, "param": false})
		},
		func() error {
			return d.Upsert("impls", Row{"name": "i2", "comp": "alu", "size": 2, "area": 4.0, "param": true})
		},
		func() error { _, err := d.Delete("impls", Eq("param", true)); return err }, // i0, i2 and nul
		func() error {
			return d.CreateTable(Schema{
				Table:   "t",
				Columns: []Column{{Name: "k", Type: TString}, {Name: "n", Type: TInt}},
				Key:     []string{"k"},
				Indexes: []Index{{Columns: []string{"n"}}},
			})
		},
		func() error { return d.Insert("t", Row{"k": "v", "n": 3}) },
		func() error { return d.Upsert("t", Row{"k": "v", "n": 4}) }, // moves the row between index postings
		func() error { _, err := d.Delete("t", Eq("k", "v")); return err },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			f.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		f.Fatal(err)
	}
	return snap, fsys["cat.snap.wal"]
}

// sealRecord frames payload as the one record of an otherwise valid
// journal — header, length, CRC — so mutated bytes reach the record
// decoder and replay instead of dying at a checksum.
func sealRecord(payload []byte) []byte {
	var buf bytes.Buffer
	w := &snapWriter{buf: &buf}
	w.raw([]byte(walMagic))
	w.u32(walVersion)
	w.u64(0)
	w.u32(uint32(len(payload)))
	w.u32(crcOf(payload))
	w.raw(payload)
	return buf.Bytes()
}

// FuzzJournalReplay opens a valid snapshot with arbitrary bytes as its
// journal through OpenDurable, twice — as the whole journal file, and as
// one record sealed inside valid framing — eager and lazy (then
// hydrating every table). Either way recovery must return a store or a
// descriptive error — never panic, never allocate in proportion to a
// forged length or count rather than to the input — and the two must
// agree: eager recovery accepts a journal exactly when lazy recovery
// plus hydration does, and both reach the same state.
func FuzzJournalReplay(f *testing.F) {
	snap, wal := fuzzJournalSeed(f)
	f.Add(wal)
	for _, n := range []int{0, 8, 19, 20, 27, 28, 40, len(wal) / 2, len(wal) - 1} {
		f.Add(wal[:n])
	}
	for _, off := range []int{0, 12, 20, 24, 29, len(wal) / 3, len(wal) / 2, len(wal) - 2} {
		flipped := append([]byte(nil), wal...)
		flipped[off] ^= 0x41
		f.Add(flipped)
	}
	for off := walHeaderLen; off < len(wal); {
		n := int(binary.LittleEndian.Uint32(wal[off:]))
		f.Add(wal[off+walFrameLen : off+walFrameLen+n]) // a bare record: the sealed leg from a valid start
		off += walFrameLen + n
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, journal := range [][]byte{data, sealRecord(data)} {
			var states [2][]byte
			var errs [2]error
			for i, mode := range []OpenMode{OpenEager, OpenLazy} {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				d, err := OpenDurable("cat.snap", DurableOptions{FS: memFS{"cat.snap": snap, "cat.snap.wal": journal}, CompactAt: -1, Open: mode})
				if err == nil {
					if err = d.HydrateAll(); err == nil {
						states[i] = stateOf(t, d.Store)
					}
					d.Close()
				}
				runtime.ReadMemStats(&after)
				// FuzzOpenSnapshot's bound, over snapshot and journal.
				if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(4<<20+2048*(len(snap)+len(journal))); grew > limit {
					t.Fatalf("%v recovery of a %d-byte journal allocated %d (limit %d)", mode, len(journal), grew, limit)
				}
				if err != nil && err.Error() == "" {
					t.Fatal("empty error message")
				}
				errs[i] = err
			}
			if (errs[0] == nil) != (errs[1] == nil) {
				t.Fatalf("eager and lazy recovery disagree: eager %v, lazy + hydration %v", errs[0], errs[1])
			}
			if errs[0] == nil && !bytes.Equal(states[0], states[1]) {
				t.Fatal("eager and lazy recovery of one journal reach different states")
			}
		}
	})
}

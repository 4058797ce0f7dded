package relstore

import (
	"bytes"
	"encoding/binary"
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

// The binary codec both on-disk formats share: little-endian primitives,
// the schema header, and positional rows. A snapshot section (SNAPSHOT.md)
// and a journal record (JOURNAL.md) write a schema the same way, and a
// row as its values alone, in the order of a column list and typed by
// it — every column of the schema for a row, the Schema.Key columns for
// a key. Neither format tags a value or names its column: the reader
// always holds the schema the writer held (the section's own header, or
// the target table at exactly-once replay).
package relstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
)

// snapWriter writes little-endian primitives into a bytes.Buffer (which
// never fails, so the writer carries no error state).
type snapWriter struct {
	buf *bytes.Buffer
	tmp [8]byte
}

func (w *snapWriter) raw(b []byte) { w.buf.Write(b) }

func (w *snapWriter) u8(v uint8) { w.buf.WriteByte(v) }

func (w *snapWriter) u32(v uint32) {
	binary.LittleEndian.PutUint32(w.tmp[:4], v)
	w.buf.Write(w.tmp[:4])
}

func (w *snapWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(w.tmp[:8], v)
	w.buf.Write(w.tmp[:8])
}

func (w *snapWriter) str(s string) {
	w.u32(uint32(len(s)))
	w.buf.WriteString(s)
}

// schema writes sc: table name, typed columns, key columns, and each
// secondary index's column list.
func (w *snapWriter) schema(sc Schema) {
	w.str(sc.Table)
	w.u32(uint32(len(sc.Columns)))
	for _, c := range sc.Columns {
		w.str(c.Name)
		w.u8(uint8(c.Type))
	}
	w.u32(uint32(len(sc.Key)))
	for _, k := range sc.Key {
		w.str(k)
	}
	w.u32(uint32(len(sc.Indexes)))
	for _, ix := range sc.Indexes {
		w.u32(uint32(len(ix.Columns)))
		for _, c := range ix.Columns {
			w.str(c)
		}
	}
}

// valueWidth is the fixed encoded width of a ct value; a string adds its
// bytes to it.
func valueWidth(ct ColType) int {
	switch ct {
	case TString:
		return 4
	case TInt, TFloat:
		return 8
	case TBool:
		return 1
	}
	return 0
}

// value writes v as a ct value and reports whether v has ct's canonical
// Go type (string, int, float64, bool); a value that does not is not
// written.
func (w *snapWriter) value(ct ColType, v any) bool {
	switch ct {
	case TString:
		s, ok := v.(string)
		if ok {
			w.str(s)
		}
		return ok
	case TInt:
		i, ok := v.(int)
		if ok {
			w.u64(uint64(int64(i)))
		}
		return ok
	case TFloat:
		f, ok := v.(float64)
		if ok {
			w.u64(math.Float64bits(f))
		}
		return ok
	case TBool:
		b, ok := v.(bool)
		if ok {
			var u uint8
			if b {
				u = 1
			}
			w.u8(u)
		}
		return ok
	}
	return false
}

// row writes r's values in cols order.
func (w *snapWriter) row(table string, cols []Column, r Row) error {
	for _, c := range cols {
		if !w.value(c.Type, r[c.Name]) {
			return fmt.Errorf("table %q column %q: cannot encode %T value in %s column", table, c.Name, r[c.Name], c.Type)
		}
	}
	return nil
}

// snapReader is a bounds-checked little-endian cursor. When s is the
// string aliasing b (same bytes), string reads slice s and never copy;
// when s is empty (schema-only parses over a raw section, journal-record
// peeks), string reads copy out of b instead — small strings, no pinned
// backing.
type snapReader struct {
	b   []byte
	s   string
	off int
	err error
}

func (r *snapReader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if len(r.b)-r.off < n {
		r.err = fmt.Errorf("unexpected end of data at offset %d (truncated?)", r.off)
		return false
	}
	return true
}

func (r *snapReader) u8() uint8 {
	if !r.need(1) {
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *snapReader) u32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *snapReader) u64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *snapReader) str() string {
	n := int(r.u32())
	// int(u32) can wrap negative on 32-bit platforms; a negative length
	// would slip past need's remaining-bytes comparison and panic below.
	if n < 0 {
		r.err = fmt.Errorf("impossible string length at offset %d (corrupted?)", r.off)
		return ""
	}
	if r.err != nil || !r.need(n) {
		return ""
	}
	var v string
	if len(r.s) == len(r.b) {
		v = r.s[r.off : r.off+n] // zero-copy slice of the aliased string
	} else {
		v = string(r.b[r.off : r.off+n])
	}
	r.off += n
	return v
}

// schema reads what snapWriter.schema wrote. Counts are not trusted for
// allocation: every declared entry costs input bytes, and the loops stop
// at the first short read.
func (r *snapReader) schema() Schema {
	sc := Schema{Table: r.str()}
	nCols := int(r.u32())
	for i := 0; i < nCols && r.err == nil; i++ {
		sc.Columns = append(sc.Columns, Column{Name: r.str(), Type: ColType(r.u8())})
	}
	nKey := int(r.u32())
	for i := 0; i < nKey && r.err == nil; i++ {
		sc.Key = append(sc.Key, r.str())
	}
	nIdx := int(r.u32())
	for i := 0; i < nIdx && r.err == nil; i++ {
		nc := int(r.u32())
		var cols []string
		for j := 0; j < nc && r.err == nil; j++ {
			cols = append(cols, r.str())
		}
		sc.Indexes = append(sc.Indexes, Index{Columns: cols})
	}
	return sc
}

// value reads one ct value, boxed through bc when it is non-nil (the
// snapshot decoder's interning) and plainly otherwise.
func (r *snapReader) value(ct ColType, bc *boxCache) any {
	switch ct {
	case TString:
		v := r.str()
		if bc == nil {
			return v
		}
		return bc.str(v)
	case TInt:
		v := int(int64(r.u64()))
		if bc == nil {
			return v
		}
		return bc.intv(v)
	case TFloat:
		v := math.Float64frombits(r.u64())
		if bc == nil {
			return v
		}
		return bc.float(v)
	case TBool:
		return r.u8() != 0
	}
	if r.err == nil {
		r.err = fmt.Errorf("unknown column type %d", ct)
	}
	return nil
}

// row reads one row of cols, uninterned.
func (r *snapReader) row(cols []Column) Row {
	row := make(Row, len(cols))
	for _, c := range cols {
		row[c.Name] = r.value(c.Type, nil)
	}
	return row
}

// done reports whether the input was consumed exactly: a short read and
// a trailing byte are both errors.
func (r *snapReader) done() error {
	if r.err == nil && r.off != len(r.b) {
		return fmt.Errorf("%d byte(s) of trailing data at offset %d", len(r.b)-r.off, r.off)
	}
	return r.err
}

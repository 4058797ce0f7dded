// Package relstore is an embedded relational store standing in for the
// INGRES database system the paper uses to hold ICDB metadata (component
// definitions, implementations, generators, instances, tool parameters).
//
// ICDB only needs typed tables with exact-match selection, ordered scans,
// keyed insert/upsert, delete, and persistence; this package provides
// exactly that with no external dependencies. Rows are schemaful: every
// value must match the declared column type.
//
// # Indexes and the query planner
//
// Reads are served through a small planner (plan.go) rather than an
// unconditional table scan. Three access paths exist:
//
//   - the primary-key index, a unique map from the key columns' values to
//     a rowid, maintained for every table whose Schema declares a Key;
//   - secondary indexes, non-unique posting lists from a column tuple to
//     the rowids holding each value combination, declared in
//     Schema.Indexes when the table is created;
//   - the full scan over the insertion-ordered rowid slice.
//
// Select, Count, Delete, and Scan all consult the planner: a predicate
// whose Eq conjuncts cover the key or an index is answered from that
// index (plus residual verification when the predicate has
// planner-opaque parts), and Get is a direct point lookup that never
// scans. Scan visits rows without copying them, for read-only
// consumers that decode rather than retain.
//
// # Concurrency and snapshot isolation
//
// All methods are safe for concurrent use. Iterating reads (Select,
// Count, Scan, Rows) do not run under the store lock: each
// pins the table's current read state — an immutable copy-on-write
// snapshot (tableData) — under a brief read lock and then plans and
// iterates lock-free. The first write after a snapshot is pinned clones
// the structure and mutates the clone, so:
//
//   - a scan observes exactly the rows that were live when it started,
//     however long it runs and whatever writers do meanwhile;
//   - writers never wait for a slow scan (or a slow network client a
//     scan is streaming to);
//   - a Scan/Rows visitor may call back into the Store, including
//     writes — re-entrancy cannot deadlock, because no lock is held
//     across the callback.
//
// # Generations
//
// Generation counts effective mutations store-wide; TableGeneration is
// the same counter's value at one table's own last effective mutation,
// carried inside the table's read snapshot and published beside it, so
// TableGeneration reads it without the store lock: checking a stamp
// never waits for a writer, even one holding the write lock across a
// journal fsync. Every stamp is a fresh draw from the one counter, so a
// table never returns to a generation it has left. State derived from
// relations is stamped per relation — ScanTables returns the stamps of
// the snapshots it pinned together, UpsertStamped the stamps on either
// side of its write plus the row it replaced — and read by one rule: pin
// the parts, then check each stamp against TableGeneration. A stamp
// still current after the pin proves its relation held that state
// throughout, so the parts that pass held together at the first check.
//
// Invariants the index machinery maintains (and tests assert):
//
//   - every live rowid appears exactly once in the table's ordered id
//     slice, which is strictly ascending — rowids are allocated
//     monotonically, so ascending order IS insertion order, and no
//     operation ever re-sorts it;
//   - a row replaced by Upsert keeps its rowid, and therefore
//     its position in scan order;
//   - each secondary-index posting list holds exactly the live rowids
//     whose rows currently carry the indexed values, ascending, with no
//     empty posting lists retained;
//   - index keys are built from canonicalized values (table.canon /
//     canonVal), so a lookup matches no matter which numeric Go type the
//     caller passed.
package relstore

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// ColType is the type of a column.
type ColType int

// Column types.
const (
	TString ColType = iota
	TInt
	TFloat
	TBool
)

// String names the column type the way schema error messages spell it
// ("string", "int", "float", "bool").
func (t ColType) String() string {
	switch t {
	case TString:
		return "string"
	case TInt:
		return "int"
	case TFloat:
		return "float"
	case TBool:
		return "bool"
	}
	return fmt.Sprintf("ColType(%d)", int(t))
}

// Column declares one column of a table schema.
type Column struct {
	Name string
	Type ColType
}

// Index declares a secondary index over a tuple of columns. Secondary
// indexes are non-unique: many rows may share one value combination.
type Index struct {
	Columns []string
}

// Schema declares a table: its name, columns, primary-key columns, and
// secondary indexes.
type Schema struct {
	Table   string
	Columns []Column
	// Key lists the column names forming the primary key. Empty means the
	// table has no uniqueness constraint (rows get hidden rowids).
	Key []string
	// Indexes declares secondary indexes to maintain from creation on.
	Indexes []Index `json:",omitempty"`
}

// Row is a single record keyed by column name.
type Row map[string]any

// clone deep-copies a row (values are scalars).
func (r Row) clone() Row {
	c := make(Row, len(r))
	maps.Copy(c, r)
	return c
}

// secIndex is one secondary index: posting lists of ascending rowids per
// indexed value combination.
type secIndex struct {
	cols     []string
	postings map[string][]int64
}

// tableData is the read-path state of one table: its rows, the
// insertion-ordered rowid slice, and every index built over them. It
// hangs off table.data as a swappable snapshot: a reader pins the
// current value (marking it shared) under the store's read lock and then
// plans and iterates with no lock held, while the first write after a
// pin clones the whole structure and mutates the clone (copy-on-write).
// A pinned snapshot therefore never changes again — which is what lets
// Scan/Rows visitors call back into the Store, and lets writers make
// progress while a slow scan is mid-flight.
type tableData struct {
	rows map[int64]Row // rowid -> row
	// ids holds the live rowids in ascending (= insertion) order. It is
	// maintained incrementally: append on insert, splice on delete.
	ids []int64
	// keyIndex maps primary-key string to rowid when schema.Key is set.
	keyIndex map[string]int64
	indexes  []*secIndex
	// gen is the table's generation (see Store.TableGeneration): the
	// store-wide mutation counter's value after the last effective
	// mutation of this table. It lives here, not on the table, so a
	// pinned snapshot carries the stamp of exactly the state it holds.
	gen uint64

	// shared is set (under the store's read lock) when a reader pins this
	// snapshot. Writers check it under the write lock — mutually exclusive
	// with every setter — and clone instead of mutating in place. The flag
	// only ever goes false -> true; a fresh clone starts unshared.
	shared atomic.Bool
}

// clone deep-copies everything writers mutate in place: the ids slice
// (spliced by Delete), the rows map, the key index, and every posting
// list (spliced by insertSorted/removeSorted). The Row values themselves
// are shared: a stored row is never mutated, only replaced (Upsert), so
// old snapshots keep seeing the rows they pinned.
func (d *tableData) clone() *tableData {
	nd := &tableData{rows: maps.Clone(d.rows), ids: slices.Clone(d.ids), keyIndex: maps.Clone(d.keyIndex), gen: d.gen}
	nd.indexes = make([]*secIndex, len(d.indexes))
	for i, ix := range d.indexes {
		nix := &secIndex{cols: ix.cols, postings: maps.Clone(ix.postings)}
		for k, p := range nix.postings {
			nix.postings[k] = slices.Clone(p)
		}
		nd.indexes[i] = nix
	}
	return nd
}

type table struct {
	schema Schema
	cols   map[string]ColType // column name -> declared type
	data   *tableData         // current read snapshot; see tableData
	nextID int64
	// pending, non-nil on a lazily opened table that has not been
	// touched yet, holds the raw snapshot section to decode on first
	// touch (lazy.go). It only ever transitions non-nil -> nil, under
	// the store's write lock, so readers may check it under the read
	// lock before pinning data.
	pending *pendingSection
	// gen publishes data.gen for TableGeneration, which reads it with no
	// lock; touch stores both.
	gen atomic.Uint64
}

// writable returns the table's data for in-place mutation, first cloning
// it when a reader has pinned the current snapshot. The caller must hold
// the store's write lock.
func (t *table) writable() *tableData {
	if t.data.shared.Load() {
		t.data = t.data.clone()
	}
	return t.data
}

// Store is a set of named tables. All methods are safe for concurrent
// use; see the package comment for the snapshot-isolation semantics of
// the iterating reads.
type Store struct {
	mu     sync.RWMutex
	tables atomic.Pointer[map[string]*table] // see tableMap

	// gen counts effective mutations (see Generation). It is bumped
	// under the write lock, after a mutation applies, and becomes the
	// mutated table's own generation (touch).
	gen atomic.Uint64
	// wal, when non-nil, is the write-ahead journal a Durable store
	// attached (journal.go): every mutator appends its record — under
	// the write lock, after validation, before applying — so the
	// journal is always a prefix-consistent log of the applied state.
	wal *wal

	// lazy is set once at decode time when the store was opened with
	// OpenLazy, immutable afterwards; the hydration counters below it
	// are guarded by mu (see lazy.go).
	lazy             bool
	hydrations       int64
	deferredPending  int64
	deferredReplayed int64
	// replaying, guarded by mu, suppresses journaling while hydration
	// replays deferred records that are already in the journal.
	replaying bool
}

// Generation returns a counter that increments on every effective
// mutation (table creation, insert, delete, or a row actually changing
// value — an Upsert that rewrites a row with identical values does not
// count). Callers use it to skip no-op saves: an unchanged Generation
// since the last durable point means the on-disk state is already
// current.
func (s *Store) Generation() uint64 { return s.gen.Load() }

// TableGeneration returns tableName's own generation: the value
// Generation reached with the last effective mutation of that table
// (its creation included). Writes to other tables and value-equal
// rewrites leave it alone, and because every stamp is a fresh draw from
// the one store-wide counter, a table never returns to a generation it
// has left — so a cache of one relation's contents stamped with this
// value is current exactly while the value still reads the same. A
// lazily opened table that nothing has touched reports its stamp
// without hydrating. It takes no lock (see the package comment,
// Generations).
func (s *Store) TableGeneration(tableName string) (uint64, error) {
	t, ok := s.tableMap()[tableName]
	if !ok {
		return 0, fmt.Errorf("relstore: no table %q", tableName)
	}
	return t.gen.Load(), nil
}

// touch stamps t's data — writable, a mutation just applied to it — with
// a fresh generation and publishes it. The caller holds the write lock.
func (s *Store) touch(t *table) {
	t.data.gen = s.gen.Add(1)
	t.gen.Store(t.data.gen)
}

// tableMap returns the published name -> table map. It is never mutated
// once published — CreateTable and the snapshot decoders install a copy
// — so it may be read with or without the store lock.
func (s *Store) tableMap() map[string]*table { return *s.tables.Load() }

// New creates an empty store.
func New() *Store {
	s := &Store{}
	s.tables.Store(&map[string]*table{})
	return s
}

// rlockTable read-locks the store and returns tableName's table, live: a
// cold lazy table is hydrated first, under the write lock. pending only
// transitions non-nil -> nil (under the write lock), so the check never
// sees a stale nil; concurrent first touchers serialize inside hydrate,
// and the losers find the table already live — no double decode. On
// error the lock is released.
func (s *Store) rlockTable(tableName string) (*table, error) {
	s.mu.RLock()
	t, ok := s.tableMap()[tableName]
	if ok && t.pending != nil {
		s.mu.RUnlock()
		if err := s.hydrate(tableName); err != nil {
			return nil, err
		}
		s.mu.RLock()
		t, ok = s.tableMap()[tableName]
	}
	if !ok {
		s.mu.RUnlock()
		return nil, fmt.Errorf("relstore: no table %q", tableName)
	}
	return t, nil
}

// CreateTable registers a new table. It fails if the table exists, the
// schema has no columns, duplicate column names, a column type other
// than the four declared, key columns that are not declared, or
// malformed secondary-index declarations.
func (s *Store) CreateTable(sc Schema) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.createTableLocked(sc)
}

func (s *Store) createTableLocked(sc Schema) error {
	if sc.Table == "" {
		return fmt.Errorf("relstore: empty table name")
	}
	if _, ok := s.tableMap()[sc.Table]; ok {
		return fmt.Errorf("relstore: table %q already exists", sc.Table)
	}
	t, err := newTable(sc)
	if err != nil {
		return err
	}
	if s.wal != nil && len(sc.Key) == 0 {
		return fmt.Errorf("relstore: table %q has no primary key; journaled stores require keyed tables", sc.Table)
	}
	if err := s.logWAL(func(w *snapWriter) error {
		w.u8(walOpCreateTable)
		w.schema(sc)
		return nil
	}); err != nil {
		return err
	}
	// Stamp before publishing: a lock-free TableGeneration must never see
	// the new table unstamped.
	s.touch(t)
	m := maps.Clone(s.tableMap())
	m[sc.Table] = t
	s.tables.Store(&m)
	return nil
}

// newTable validates sc and builds an empty table for it: CreateTable
// minus the store-level concerns (name conflicts, journaling), so the
// snapshot decoders can construct tables standalone — concurrently for
// the parallel eager path, stub-first for the lazy one. It is the one
// schema validator: CreateTable, both snapshot decoders and journal
// replay all build their tables here, so a schema one of them accepts
// the others accept too.
func newTable(sc Schema) (*table, error) {
	if sc.Table == "" {
		return nil, fmt.Errorf("relstore: empty table name")
	}
	if len(sc.Columns) == 0 {
		return nil, fmt.Errorf("relstore: table %q has no columns", sc.Table)
	}
	cols := make(map[string]ColType)
	for _, c := range sc.Columns {
		if _, dup := cols[c.Name]; dup {
			return nil, fmt.Errorf("relstore: table %q duplicate column %q", sc.Table, c.Name)
		}
		if c.Type < TString || c.Type > TBool {
			return nil, fmt.Errorf("relstore: table %q column %q: unknown column type %d", sc.Table, c.Name, c.Type)
		}
		cols[c.Name] = c.Type
	}
	for _, k := range sc.Key {
		if _, ok := cols[k]; !ok {
			return nil, fmt.Errorf("relstore: table %q key column %q not declared", sc.Table, k)
		}
	}
	t := &table{
		schema: sc,
		cols:   cols,
		data: &tableData{
			rows:     make(map[int64]Row),
			keyIndex: make(map[string]int64),
		},
	}
	for _, ix := range sc.Indexes {
		if err := t.addIndex(ix.Columns); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// addIndex validates one secondary-index declaration and attaches an
// empty index for it to the new table's data.
func (t *table) addIndex(cols []string) error {
	if len(cols) == 0 {
		return fmt.Errorf("relstore: table %q: index over no columns", t.schema.Table)
	}
	seen := make(map[string]bool, len(cols))
	for _, c := range cols {
		if _, ok := t.cols[c]; !ok {
			return fmt.Errorf("relstore: table %q index column %q not declared", t.schema.Table, c)
		}
		if seen[c] {
			return fmt.Errorf("relstore: table %q index repeats column %q", t.schema.Table, c)
		}
		seen[c] = true
	}
	d := t.data
	for _, ix := range d.indexes {
		if slices.Equal(ix.cols, cols) {
			return fmt.Errorf("relstore: table %q already has an index on %v", t.schema.Table, cols)
		}
	}
	d.indexes = append(d.indexes, &secIndex{
		cols:     slices.Clone(cols),
		postings: make(map[string][]int64),
	})
	return nil
}

// Tables returns the table names in sorted order.
func (s *Store) Tables() []string {
	return slices.Sorted(maps.Keys(s.tableMap()))
}

// SchemaOf returns the schema of table name.
func (s *Store) SchemaOf(name string) (Schema, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tableMap()[name]
	if !ok {
		return Schema{}, fmt.Errorf("relstore: no table %q", name)
	}
	return t.schema, nil
}

func (t *table) checkRow(r Row) error {
	for _, c := range t.schema.Columns {
		v, present := r[c.Name]
		if !present {
			return fmt.Errorf("relstore: table %q missing column %q", t.schema.Table, c.Name)
		}
		if err := checkType(c.Type, v); err != nil {
			return fmt.Errorf("relstore: table %q column %q: %w", t.schema.Table, c.Name, err)
		}
	}
	for k := range r {
		if _, ok := t.cols[k]; !ok {
			return fmt.Errorf("relstore: table %q has no column %q", t.schema.Table, k)
		}
	}
	return nil
}

func checkType(ct ColType, v any) error {
	switch ct {
	case TString:
		if _, ok := v.(string); !ok {
			return fmt.Errorf("want string, got %T", v)
		}
	case TInt:
		switch v.(type) {
		case int, int64:
		default:
			return fmt.Errorf("want int, got %T", v)
		}
	case TFloat:
		switch v.(type) {
		case float64, float32, int, int64:
		default:
			return fmt.Errorf("want float, got %T", v)
		}
	case TBool:
		if _, ok := v.(bool); !ok {
			return fmt.Errorf("want bool, got %T", v)
		}
	default:
		return fmt.Errorf("unknown column type %d", ct)
	}
	return nil
}

// canon returns a copy of r with values normalized to each column's
// canonical Go type (TInt -> int, TFloat -> float64), so stored rows
// read back with the same types whether or not they crossed a
// snapshot round-trip.
func (t *table) canon(r Row) Row {
	c := r.clone()
	for _, col := range t.schema.Columns {
		switch col.Type {
		case TInt:
			if v, ok := c[col.Name].(int64); ok {
				c[col.Name] = int(v)
			}
		case TFloat:
			switch v := c[col.Name].(type) {
			case int:
				c[col.Name] = float64(v)
			case int64:
				c[col.Name] = float64(v)
			case float32:
				c[col.Name] = float64(v)
			}
		}
	}
	return c
}

// renderKeyPart renders one canonical column value for use in a joined
// key string. String values have NUL and backslash escaped so the
// part-separator (NUL) cannot occur inside a part — the encoding is
// injective, which the verify-free fast paths (Get, exact-cover plans)
// rely on. Non-string canonical values (int, float64, bool) never render
// either byte.
func renderKeyPart(v any) string {
	if s, ok := v.(string); ok {
		if strings.ContainsAny(s, "\x00\\") {
			s = strings.ReplaceAll(s, `\`, `\\`)
			s = strings.ReplaceAll(s, "\x00", `\0`)
		}
		return s
	}
	return fmt.Sprintf("%v", v)
}

// joinRow builds the index-key string for cols from an already-canonical
// stored row.
func joinRow(cols []string, r Row) string {
	parts := make([]string, len(cols))
	for i, c := range cols {
		parts[i] = renderKeyPart(r[c])
	}
	return strings.Join(parts, "\x00")
}

// joinVals builds the index-key string for cols from queried values,
// canonicalizing each so it lines up with stored rows. sat is false when
// a value cannot possibly equal any stored value of its column's type
// (so no key should be probed at all — see canonMatchesCol).
func (t *table) joinVals(cols []string, vals map[string]any) (key string, sat bool) {
	parts := make([]string, len(cols))
	for i, c := range cols {
		cv := canonVal(t.cols[c], vals[c])
		if !canonMatchesCol(t.cols[c], cv) {
			return "", false
		}
		parts[i] = renderKeyPart(cv)
	}
	return strings.Join(parts, "\x00"), true
}

// keyColumns returns the Schema.Key columns, typed, in key order: the
// column list the journal writes and reads a key with.
func (t *table) keyColumns() []Column {
	cs := make([]Column, len(t.schema.Key))
	for i, k := range t.schema.Key {
		cs[i] = Column{Name: k, Type: t.cols[k]}
	}
	return cs
}

func (t *table) keyOf(r Row) string {
	if len(t.schema.Key) == 0 {
		return ""
	}
	return joinRow(t.schema.Key, r)
}

// insertSorted splices id into ascending slice s (O(1) when id is the
// largest, the insert-path common case).
func insertSorted(s []int64, id int64) []int64 {
	i, _ := slices.BinarySearch(s, id)
	return slices.Insert(s, i, id)
}

// removeSorted splices id out of ascending slice s.
func removeSorted(s []int64, id int64) []int64 {
	if i, ok := slices.BinarySearch(s, id); ok {
		return slices.Delete(s, i, i+1)
	}
	return s
}

// indexAdd registers (id, r) in every secondary index.
func (d *tableData) indexAdd(id int64, r Row) {
	for _, ix := range d.indexes {
		k := joinRow(ix.cols, r)
		ix.postings[k] = insertSorted(ix.postings[k], id)
	}
}

// indexRemove drops (id, r) from every secondary index, releasing empty
// posting lists.
func (d *tableData) indexRemove(id int64, r Row) {
	for _, ix := range d.indexes {
		k := joinRow(ix.cols, r)
		if p := removeSorted(ix.postings[k], id); len(p) > 0 {
			ix.postings[k] = p
		} else {
			delete(ix.postings, k)
		}
	}
}

// Insert adds a row. It fails on schema violations or primary-key
// conflicts.
func (s *Store) Insert(tableName string, r Row) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.insertLocked(tableName, r)
}

func (s *Store) insertLocked(tableName string, r Row) error {
	t, err := s.tableLocked(tableName)
	if err != nil {
		return err
	}
	if err := t.checkRow(r); err != nil {
		return err
	}
	// Canonicalize before keying so the key index always reflects the
	// stored representation (float32 key values would otherwise index
	// under a different string than the stored float64 reproduces).
	cr := t.canon(r)
	var k string
	if len(t.schema.Key) > 0 {
		k = t.keyOf(cr)
		if _, conflict := t.data.keyIndex[k]; conflict {
			return fmt.Errorf("relstore: table %q duplicate key %v=%q", tableName, t.schema.Key, keyValues(k))
		}
	}
	if err := s.logWAL(func(w *snapWriter) error {
		w.u8(walOpInsert)
		w.str(tableName)
		return w.row(tableName, t.schema.Columns, cr)
	}); err != nil {
		return err
	}
	d := t.writable()
	if len(t.schema.Key) > 0 {
		d.keyIndex[k] = t.nextID
	}
	d.rows[t.nextID] = cr
	d.ids = append(d.ids, t.nextID)
	d.indexAdd(t.nextID, cr)
	t.nextID++
	s.touch(t)
	return nil
}

// Upsert inserts r, replacing any existing row with the same primary key.
// A replaced row keeps its rowid, and so its position in scan order. The
// table must declare a key.
func (s *Store) Upsert(tableName string, r Row) error {
	_, err := s.UpsertStamped(tableName, r)
	return err
}

// UpsertResult reports what one Upsert did, as observed inside the
// critical section that applied it.
type UpsertResult struct {
	// Replaced is the row the upsert replaced — for a value-equal no-op,
	// the identical row already stored — and nil when the key was new. It
	// is the store's internal row: read-only, like the rows Scan visits.
	Replaced Row
	// Before and After are the table's generation (TableGeneration) on
	// either side of the upsert; they are equal exactly when the upsert
	// was a no-op. A caller maintaining derived state over the table may
	// apply this upsert's delta to a copy stamped Before and restamp it
	// After: no other mutation of the table lies between the two.
	Before, After uint64
}

// UpsertStamped is Upsert that also reports the replaced row and the
// table generations around the write, all read under the same write
// lock the upsert applied under.
func (s *Store) UpsertStamped(tableName string, r Row) (UpsertResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.upsertLocked(tableName, r)
}

func (s *Store) upsertLocked(tableName string, r Row) (UpsertResult, error) {
	t, err := s.tableLocked(tableName)
	if err != nil {
		return UpsertResult{}, err
	}
	if len(t.schema.Key) == 0 {
		return UpsertResult{}, fmt.Errorf("relstore: table %q has no key; cannot upsert", tableName)
	}
	if err := t.checkRow(r); err != nil {
		return UpsertResult{}, err
	}
	cr := t.canon(r)
	k := t.keyOf(cr)
	res := UpsertResult{Before: t.data.gen, After: t.data.gen}
	id, exists := t.data.keyIndex[k]
	if exists {
		res.Replaced = t.data.rows[id]
		// A value-identical replacement is a no-op: nothing to journal, no
		// generation bump — so re-seeding an unchanged catalog on open
		// stays journal-silent and save-skippable.
		if maps.Equal(res.Replaced, cr) { // canonical values are comparable scalars
			return res, nil
		}
	}
	if err := s.logWAL(func(w *snapWriter) error {
		w.u8(walOpUpsert)
		w.str(tableName)
		return w.row(tableName, t.schema.Columns, cr)
	}); err != nil {
		return UpsertResult{}, err
	}
	d := t.writable()
	if exists {
		d.indexRemove(id, res.Replaced)
	} else {
		id = t.nextID
		t.nextID++
		d.keyIndex[k] = id
		d.ids = append(d.ids, id)
	}
	d.rows[id] = cr
	d.indexAdd(id, cr)
	s.touch(t)
	res.After = d.gen
	return res, nil
}

// Select returns copies of all rows of tableName matching p (nil p matches
// everything), in insertion order. Point and indexed predicates (see the
// package comment) are served from the corresponding index. Like Scan it
// reads a pinned snapshot, not the locked store.
func (s *Store) Select(tableName string, p Pred) ([]Row, error) {
	var out []Row
	err := s.Scan(tableName, p, func(r Row) bool {
		out = append(out, r.clone())
		return true
	})
	return out, err
}

// Get is the point-lookup fast path: it returns a copy of the single row
// of a keyed table whose primary-key columns equal keyVals (in Schema.Key
// order), without scanning. Numeric key values are matched canonically,
// like Eq. Get reads the live store under the read lock (no snapshot is
// pinned — a point lookup runs no user code and finishes immediately).
func (s *Store) Get(tableName string, keyVals ...any) (Row, error) {
	t, err := s.rlockTable(tableName)
	if err != nil {
		return nil, err
	}
	defer s.mu.RUnlock()
	if len(t.schema.Key) == 0 {
		return nil, fmt.Errorf("relstore: table %q has no key; cannot Get", tableName)
	}
	if len(keyVals) != len(t.schema.Key) {
		return nil, fmt.Errorf("relstore: table %q: Get got %d key value(s), want %v", tableName, len(keyVals), t.schema.Key)
	}
	parts := make([]string, len(keyVals))
	for i, kc := range t.schema.Key {
		cv := canonVal(t.cols[kc], keyVals[i])
		if !canonMatchesCol(t.cols[kc], cv) {
			return nil, fmt.Errorf("relstore: table %q: no matching row", tableName)
		}
		parts[i] = renderKeyPart(cv)
	}
	d := t.data
	id, ok := d.keyIndex[strings.Join(parts, "\x00")]
	if !ok {
		return nil, fmt.Errorf("relstore: table %q: no matching row", tableName)
	}
	return d.rows[id].clone(), nil
}

// Scan visits the rows of tableName matching p in insertion order,
// stopping early when visit returns false. It is the zero-copy read path:
// visit receives the store's internal row, so it must treat the row as
// read-only and must not retain it (or any contained reference) after
// returning — copy what outlives the visit.
//
// The scan iterates a pinned copy-on-write snapshot, with no store lock
// held across visits: visit may call back into the Store (reads and even
// writes — re-entrancy cannot deadlock), writers make progress while a
// scan is mid-flight, and the scan is isolated from them — it sees
// exactly the rows that were live when it started.
func (s *Store) Scan(tableName string, p Pred, visit func(Row) bool) error {
	return s.ScanTables([]TableScan{{Table: tableName, Pred: p, Visit: visit}})
}

// TableScan is one table's share of a ScanTables call: Scan's arguments,
// plus the generation of a state of the table the caller already holds.
type TableScan struct {
	Table string
	Pred  Pred
	Visit func(Row) bool
	// Have points at the generation (TableGeneration) of a state of the
	// table the caller already holds, nil for none: a table whose
	// snapshot still carries it is neither pinned nor scanned.
	Have *uint64
	// Gen is set to the generation of the table's snapshot at the pin:
	// the state Visit saw, or, when it equals *Have, the one the caller
	// holds.
	Gen uint64
	t   *table // pinned, from the pin to the end of the scan
	d   *tableData
}

// ScanTables pins the snapshots of every scan's table under one read
// lock — so together they are one store version — hydrating cold lazy
// tables first as every read path does, and then runs each scan as Scan
// would, in order, with no lock held: several relations read at one
// version, whatever writers commit meanwhile.
func (s *Store) ScanTables(scans []TableScan) error {
	// pending only goes non-nil -> nil: hydrated one by one, the tables
	// are all live under the one read lock, taken last, that pins them.
	for i, sc := range scans {
		if _, err := s.rlockTable(sc.Table); err != nil {
			return err
		}
		if i < len(scans)-1 {
			s.mu.RUnlock()
		}
	}
	if len(scans) == 0 {
		return nil
	}
	for i := range scans {
		sc := &scans[i]
		t, ok := s.tableMap()[sc.Table]
		if !ok {
			s.mu.RUnlock()
			return fmt.Errorf("relstore: no table %q", sc.Table)
		}
		if sc.Gen = t.data.gen; sc.Have == nil || *sc.Have != sc.Gen {
			t.data.shared.Store(true)
			sc.t, sc.d = t, t.data
		}
	}
	s.mu.RUnlock()
	for i := range scans {
		sc := &scans[i]
		if sc.t == nil {
			continue
		}
		ids, verify := sc.t.plan(sc.d, sc.Pred)
		for _, id := range ids {
			if r := sc.d.rows[id]; (!verify || sc.Pred.Match(r)) && !sc.Visit(r) {
				break
			}
		}
		sc.t, sc.d = nil, nil
	}
	return nil
}

// keyValues renders a key-index string for error messages.
func keyValues(k string) string {
	return strings.ReplaceAll(k, "\x00", ",")
}

// Delete removes all rows matching p and returns the count removed. Like
// the other readers it narrows candidates through the planner, so a
// Delete by key or indexed columns touches only the matching rows.
func (s *Store) Delete(tableName string, p Pred) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deleteLocked(tableName, p)
}

func (s *Store) deleteLocked(tableName string, p Pred) (int, error) {
	t, err := s.tableLocked(tableName)
	if err != nil {
		return 0, err
	}
	d := t.data
	ids, verify := t.plan(d, p)
	// victims is a fresh slice: the plan may alias index state that the
	// removal mutates.
	var victims []int64
	for _, id := range ids {
		if verify && !p.Match(d.rows[id]) {
			continue
		}
		victims = append(victims, id)
	}
	if len(victims) == 0 {
		return 0, nil
	}
	// One record for the whole batch, addressed by primary key (rowids
	// are not stable across a snapshot reload).
	if err := s.logWAL(func(w *snapWriter) error {
		w.u8(walOpDelete)
		w.str(tableName)
		w.u32(uint32(len(victims)))
		keyCols := t.keyColumns()
		for _, id := range victims {
			if err := w.row(tableName, keyCols, d.rows[id]); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return 0, err
	}
	return s.removeLocked(t, victims), nil
}

// removeLocked removes the rows victims (rowids) from t — key index,
// secondary postings, rows and the ordered id slice — stamps the table
// and returns how many rows went. It is the one removal routine: Delete
// applies it live and its journal record replays through it. A rowid
// named twice is removed once. The caller holds the write lock and has
// journaled the removal.
func (s *Store) removeLocked(t *table, victims []int64) int {
	wd := t.writable()
	removed := make(map[int64]bool, len(victims))
	for _, id := range victims {
		if removed[id] {
			continue
		}
		r := wd.rows[id]
		delete(wd.keyIndex, t.keyOf(r))
		wd.indexRemove(id, r)
		delete(wd.rows, id)
		removed[id] = true
	}
	wd.ids = slices.DeleteFunc(wd.ids, func(id int64) bool { return removed[id] })
	s.touch(t)
	return len(removed)
}

// Count returns the number of rows matching p. It plans and verifies like
// Select but never copies a row.
func (s *Store) Count(tableName string, p Pred) (int, error) {
	t, err := s.rlockTable(tableName)
	if err != nil {
		return 0, err
	}
	d := t.data
	d.shared.Store(true) // pinned: p may run caller code, so not under the lock
	s.mu.RUnlock()
	ids, verify := t.plan(d, p)
	if !verify {
		return len(ids), nil
	}
	n := 0
	for _, id := range ids {
		if p.Match(d.rows[id]) {
			n++
		}
	}
	return n, nil
}

// Lazy snapshot open: first-touch hydration of table sections.
//
// A store opened with OpenLazy holds, per table, a stub — real schema,
// empty data — plus a pendingSection pointing at the raw section bytes
// inside the snapshot buffer. Every access path that needs rows
// (snapshot(), Get, the mutators via tableLocked, SaveSnapshot via
// HydrateAll) hydrates the table first: verify the section's CRC-32C
// against the directory, bulk-decode rows and indexes, then — for
// stores opened by OpenDurable — strictly replay the table's deferred
// journal records, all under the store's write lock.
//
// Hydration is race-safe under concurrent first touch by double-checked
// locking: readers peek t.pending under the read lock (it only ever
// transitions non-nil -> nil, under the write lock), and losers of the
// race block on the write lock while the winner decodes — they never
// decode twice. A hydration failure (checksum mismatch, malformed rows,
// a deferred record that does not apply) poisons the section with a
// sticky error: every later access re-fails immediately instead of
// re-decoding, and the rest of the catalog stays usable.
package relstore

import (
	"fmt"
	"hash/crc32"
	"sort"
)

// pendingSection is the not-yet-decoded state of one lazily opened
// table. All fields are guarded by the store's write lock once the
// store is shared.
type pendingSection struct {
	raw     []byte // the table's section bytes, aliasing the snapshot buffer
	crc     uint32 // expected CRC-32C of raw, from the section directory
	rowsOff int    // offset of the first row inside raw (schema header ends here)
	nRows   int
	payload int // declared row-payload byte length
	// deferred holds this table's uncovered journal records when the
	// store was opened lazily by OpenDurable: their strict exactly-once
	// replay runs right after the row decode, under the same write lock,
	// so no reader can observe the pre-replay state.
	deferred [][]byte
	// err poisons the section: set when the open-time schema decode
	// failed, or when a hydration attempt failed. Sticky — every later
	// access returns it without re-decoding.
	err error
}

// hydrate materializes name under the write lock; a no-op when the
// table is already live or does not exist (the caller re-checks).
func (s *Store) hydrate(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.tableMap()[name]; ok {
		return s.hydrateLocked(t)
	}
	return nil
}

// hydrateLocked decodes t's pending section and replays its deferred
// journal records. The caller holds the write lock. Idempotent: a
// hydrated table returns nil immediately, a poisoned one its sticky
// error.
func (s *Store) hydrateLocked(t *table) error {
	p := t.pending
	if p == nil {
		return nil
	}
	if p.err != nil {
		return p.err
	}
	name := t.schema.Table
	if sum := crc32.Checksum(p.raw, snapCRC); sum != p.crc {
		p.err = fmt.Errorf("relstore: table %q: section checksum mismatch (want %08x, directory carries %08x): snapshot section is corrupted",
			name, sum, p.crc)
		return p.err
	}
	// One string copy of the section for zero-copy string values, same
	// as the eager decoder; the reader starts past the schema header,
	// which lazyStub already decoded into t.schema.
	r := &snapReader{b: p.raw, s: string(p.raw), off: p.rowsOff}
	if err := t.decodeSectionRows(r, p.nRows, p.payload, newBoxCache()); err != nil {
		p.err = fmt.Errorf("relstore: hydrate table %q: %w", name, err)
		return p.err
	}
	t.pending = nil
	s.hydrations++
	if n := len(p.deferred); n > 0 {
		// The records are already in the journal — replaying must not
		// re-append them. replaying is cleared before any return so a
		// later mutation in this critical section journals normally.
		s.replaying = true
		for i, rec := range p.deferred {
			if err := s.applyWALRecordLocked(rec); err != nil {
				s.replaying = false
				p.err = fmt.Errorf("relstore: hydrate table %q: deferred journal record %d does not apply: %w", name, i, err)
				p.deferred = nil
				t.pending = p // re-poison: the table is mid-replay, unusable
				return p.err
			}
		}
		s.replaying = false
		s.deferredPending -= int64(n)
		s.deferredReplayed += int64(n)
	}
	return nil
}

// tableLocked returns the named table, hydrated. It is the lookup every
// mutator goes through; the caller holds the write lock.
func (s *Store) tableLocked(name string) (*table, error) {
	t, ok := s.tableMap()[name]
	if !ok {
		return nil, fmt.Errorf("relstore: no table %q", name)
	}
	if t.pending != nil {
		if err := s.hydrateLocked(t); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// HydrateAll materializes every still-pending table of a lazily opened
// store, in sorted name order, stopping at the first failure. Encoding
// paths (SaveSnapshot, Durable.Compact) call it first: a snapshot
// must never be written from a store whose journal records are still
// waiting in pending sections. A fully hydrated (or eagerly opened)
// store returns nil immediately.
func (s *Store) HydrateAll() error {
	if !s.lazy {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.tableMap()))
	for n, t := range s.tableMap() {
		if t.pending != nil {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		if err := s.hydrateLocked(s.tableMap()[n]); err != nil {
			return err
		}
	}
	return nil
}

// LazyInfo reports a store's hydration state, the numbers behind
// icdbd's boot log line and "show server" hydration counters.
type LazyInfo struct {
	// Lazy reports whether the store was opened lazily (false for eager
	// opens and fresh stores — every other field is trivial then).
	Lazy bool
	// Tables / Hydrated / Pending count the catalog's tables and how
	// many are materialized vs still cold (poisoned sections count as
	// pending — they never materialize).
	Tables   int
	Hydrated int
	Pending  int
	// PendingTables names the still-cold sections, sorted. Nil once
	// everything is hydrated.
	PendingTables []string
	// Hydrations counts first-touch materializations performed since
	// open (tables created live are never counted).
	Hydrations int64
	// DeferredPending / DeferredReplayed count journal records whose
	// replay OpenDurable deferred to hydration: still waiting vs
	// already applied.
	DeferredPending  int64
	DeferredReplayed int64
}

// LazyInfo snapshots the store's hydration counters.
func (s *Store) LazyInfo() LazyInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	li := LazyInfo{Lazy: s.lazy, Tables: len(s.tableMap())}
	for n, t := range s.tableMap() {
		if t.pending != nil {
			li.PendingTables = append(li.PendingTables, n)
		}
	}
	sort.Strings(li.PendingTables)
	li.Pending = len(li.PendingTables)
	li.Hydrated = li.Tables - li.Pending
	li.Hydrations = s.hydrations
	li.DeferredPending = s.deferredPending
	li.DeferredReplayed = s.deferredReplayed
	return li
}

package relstore

import "iter"

// Rows returns a cursor over the rows of tableName matching p (nil p
// matches everything), in insertion order. Like Select and Scan it
// narrows candidates through the query planner, so an Eq-shaped
// predicate over the key or an indexed column tuple walks only the
// matching posting list. Unlike Select nothing is materialized: rows are
// yielded one at a time, without copying, so a caller that decodes into
// its own representation allocates nothing per row here.
//
// On error (unknown table) the sequence yields a single (nil, error)
// pair; every successful yield carries a nil error.
//
// The iteration runs over a pinned copy-on-write snapshot, with no store
// lock held across yields: the loop body may call back into the Store
// (reads and writes both), writers make progress while the cursor is
// mid-flight, and the cursor sees exactly the rows that were live when
// Rows captured the snapshot. The loop body must still treat each
// yielded Row as read-only and must not retain it (or any contained
// reference) after the iteration advances — copy what outlives the loop.
func (s *Store) Rows(tableName string, p Pred) iter.Seq2[Row, error] {
	return func(yield func(Row, error) bool) {
		if err := s.Scan(tableName, p, func(r Row) bool { return yield(r, nil) }); err != nil {
			yield(nil, err)
		}
	}
}

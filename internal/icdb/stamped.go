package icdb

import (
	"sync"
	"sync/atomic"

	"icdb/internal/relstore"
)

// stamped is one piece of derived read-path state over one relation — the
// implementation indexes, the estimator programs, the ranking weights —
// under the engine's one cache-validity rule, which the frontier cache
// (explCache) follows per scope:
//
//   - The value is built from one ScanStamped of its relation and carries
//     that scan's generation. It is current exactly while the stamp has
//     caught up with the relation's TableGeneration (a lock-free load),
//     which a reader checks first; a reader that finds it behind rebuilds.
//   - A registration through the DB (upsert) moves the stamp with its own
//     delta, from its upsert's Before to its After, only when the stamp
//     equals Before: nothing else lies between the two. Any other write —
//     directly through Store() included — leaves the stamp behind: the
//     cache can be stale (unusable), never wrong.
//   - The value is copy-on-write: a reader pins it (marks it shared) and
//     then uses it with no lock, so streamed visitors may run as long as
//     they like and re-enter the DB; a delta clones a pinned value first.
type stamped[T interface{ clone() T }] struct {
	store *relstore.Store
	table string
	build func() (T, uint64, error)

	// wmu, shared by all of a DB's stamped caches, serializes what moves
	// a stamp: rebuilds, and registrations from before their upsert until
	// their delta is in. So deltas reach a cache in store order, a reader
	// that saw a registration's generation before its delta waits for the
	// delta, not a rebuild, and a cold start builds the caches one at a
	// time rather than racing several scans for the same cores and memory
	// (on a 100k-implementation catalog, racing builds left the queries
	// that followed slower).
	wmu      *sync.Mutex
	rebuilds atomic.Uint64

	// mu guards cur, and is held only to pin or swap it.
	mu  sync.RWMutex
	cur *stampedVal[T]
}

// stampedVal is one built value and the generation it equals.
type stampedVal[T any] struct {
	val    T
	gen    uint64
	shared atomic.Bool // set by a pin; a delta then clones instead of writing
}

func newStamped[T interface{ clone() T }](store *relstore.Store, wmu *sync.Mutex, table string, build func() (T, uint64, error)) *stamped[T] {
	return &stamped[T]{store: store, wmu: wmu, table: table, build: build}
}

// get returns the cache's value, pinned, as of no earlier than the call:
// the cached one while its stamp is current, otherwise a fresh build.
func (c *stamped[T]) get() (T, error) {
	var zero T
	gen, err := c.store.TableGeneration(c.table)
	if err != nil {
		return zero, err
	}
	if v, ok := c.pin(gen); ok {
		return v, nil
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if v, ok := c.pin(gen); ok {
		return v, nil // a delta or another reader's rebuild got there first
	}
	v, g, err := c.build()
	if err != nil {
		return zero, err
	}
	c.rebuilds.Add(1)
	sv := &stampedVal[T]{val: v, gen: g}
	sv.shared.Store(true)
	c.mu.Lock()
	c.cur = sv
	c.mu.Unlock()
	return v, nil
}

// pin returns the cached value, marked shared, if its stamp has reached
// gen.
func (c *stamped[T]) pin(gen uint64) (T, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.cur == nil || c.cur.gen < gen {
		var zero T
		return zero, false
	}
	if !c.cur.shared.Load() {
		c.cur.shared.Store(true)
	}
	return c.cur.val, true
}

// peek runs look over the cached value, under the read lock and without
// pinning it, if its stamp is current: for point lookups that neither
// rebuild nor make the next delta clone.
func (c *stamped[T]) peek(look func(T)) {
	gen, err := c.store.TableGeneration(c.table)
	if err != nil {
		return
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.cur != nil && c.cur.gen >= gen {
		look(c.cur.val)
	}
}

// upsert writes row to the cache's relation and applies delta — which
// must bring the value to exactly what a rebuild after the write would
// hold — when the cache stands where the upsert found the relation.
func (c *stamped[T]) upsert(row relstore.Row, delta func(T)) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	res, err := c.store.UpsertStamped(c.table, row)
	if err != nil || res.Before == res.After {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cur == nil || c.cur.gen != res.Before {
		return nil // nothing cached, or already stale: the next get rebuilds
	}
	if c.cur.shared.Load() {
		c.cur = &stampedVal[T]{val: c.cur.val.clone(), gen: c.cur.gen}
	}
	delta(c.cur.val)
	c.cur.gen = res.After
	return nil
}

// drop forgets the cached value.
func (c *stamped[T]) drop() {
	c.mu.Lock()
	c.cur = nil
	c.mu.Unlock()
}

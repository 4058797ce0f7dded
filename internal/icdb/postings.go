package icdb

// Posting lists. The inverted indexes of the implementations part map
// each function and component type to a postList: the entries of the
// implementations under it, sorted by name. An entry carries the five
// scalar attributes beside the *Impl, so a candidate's slot vector loads
// from the list itself, and a list walked at a width point is joined to
// the estimators by position — a parallel slice of estimator pairs built
// once per (list, estimators part) — instead of by one name lookup per
// candidate.

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"weak"

	"icdb/internal/genus"
)

// implEntry is one posting-list entry: an implementation and its five
// scalar attributes in slot order (slotWidthMin through slotDelay).
type implEntry struct {
	im *Impl
	a  [slotWidth]float64
}

func entryOf(im *Impl) implEntry {
	return implEntry{im: im, a: [slotWidth]float64{
		float64(im.WidthMin), float64(im.WidthMax), float64(im.Stages), im.Area, im.Delay,
	}}
}

func byName(e implEntry, name string) int { return strings.Compare(e.im.Name, name) }

// postList is one posting list, its entries sorted by name with one
// entry per name. A published list is immutable and may be shared by
// several snapshots of the implementations part; a delta replaces the
// lists it touches with copies (repost) and shares the rest. The one
// thing written into a published list is its estimator join.
type postList struct {
	ents []implEntry
	// joinMu runs join builds one at a time; join is the latest built,
	// read without the lock.
	joinMu sync.Mutex
	join   atomic.Pointer[estJoin]
}

// estJoin is a list's estimator pairs in entry order, read from one
// estimators part. It holds the part weakly: a join outliving its part
// keeps no estimator map alive, and a collected part matches nothing.
type estJoin struct {
	from  weak.Pointer[part]
	pairs []estPair
}

// appendTo adds e at the end of m[k]'s list while seal builds it,
// allocating a new list at its final size n.
func appendTo[K comparable](m map[K]*postList, k K, n int, e implEntry) {
	pl := m[k]
	if pl == nil {
		pl = &postList{ents: make([]implEntry, 0, n)}
		m[k] = pl
	}
	pl.ents = append(pl.ents, e)
}

// repost replaces m[k] with a copy in which name's entry is dropped
// and, when e is non-nil, e is filed in its place; a list left empty is
// removed. The list it replaces is not written.
func repost[K comparable](m map[K]*postList, k K, name string, e *implEntry) {
	var ents []implEntry
	if pl := m[k]; pl != nil {
		ents = pl.ents
	}
	i, found := slices.BinarySearchFunc(ents, name, byName)
	if !found && e == nil {
		return
	}
	n := len(ents)
	if found {
		n--
	}
	if e != nil {
		n++
	}
	if n == 0 {
		delete(m, k)
		return
	}
	out := make([]implEntry, 0, n)
	out = append(out, ents[:i]...)
	if e != nil {
		out = append(out, *e)
	}
	if found {
		i++
	}
	m[k] = &postList{ents: append(out, ents[i:]...)}
}

// join returns the estimator pairs of pl's entries in entry order, from
// the estimators part ests, which the caller pinned. The first call for
// a (list, part) builds them with one name lookup per entry; later ones
// read the cached join. A pinned part's value never changes and a delta
// always installs a new part, so the same part means the same pairs.
func (db *DB) join(pl *postList, ests *part) []estPair {
	if j := pl.join.Load(); j != nil && j.from.Value() == ests {
		return j.pairs
	}
	pl.joinMu.Lock()
	defer pl.joinMu.Unlock()
	if j := pl.join.Load(); j != nil && j.from.Value() == ests {
		return j.pairs
	}
	m := ests.val.(estMap)
	pairs := make([]estPair, len(pl.ents))
	for i := range pl.ents {
		pairs[i] = m[pl.ents[i].im.Name]
	}
	pl.join.Store(&estJoin{from: weak.Make(ests), pairs: pairs})
	db.joins.Add(1)
	db.joinLookups.Add(uint64(len(pairs)))
	return pairs
}

// each streams the entries q selects from snapshot d to visit, as the
// list each came from and its position there, stopping early when visit
// returns false. The functions' lists and Type's list are intersected by
// a merge driven by the shortest; with neither selector, every
// component type's list is walked in turn (each implementation is on
// exactly one). Either way the stream is in name order within a list.
// Lists are immutable, so the stream holds no lock and may outlive a
// writer.
func (q *Query) each(d *derived, visit func(pl *postList, i int) bool) error {
	lists := make([]*postList, 0, len(q.Functions)+1)
	if q.Type != "" {
		ct, ok := genus.NormalizeComponentType(string(q.Type))
		if !ok {
			return fmt.Errorf("icdb: unknown component type %q", q.Type)
		}
		lists = append(lists, d.byCt[ct])
	}
	for _, f := range q.Functions {
		nf, err := genus.NormalizeFunction(string(f))
		if err != nil {
			return err
		}
		lists = append(lists, d.byFn[nf])
	}
	if len(lists) == 0 {
		for _, ct := range slices.Sorted(maps.Keys(d.byCt)) {
			if !intersect([]*postList{d.byCt[ct]}, visit) {
				return nil
			}
		}
		return nil
	}
	intersect(lists, visit)
	return nil
}

// intersect visits the entries on every list, in name order, by their
// position on the shortest list: it walks that one and gallops a cursor
// through each other list, so a list of n entries costs the walk of a
// shortest list of m about m*log(n/m) comparisons, not n probes. A nil
// list matches nothing. It reports whether visit asked for more.
func intersect(lists []*postList, visit func(pl *postList, i int) bool) bool {
	drive := 0
	for k, pl := range lists {
		if pl == nil {
			return true
		}
		if len(pl.ents) < len(lists[drive].ents) {
			drive = k
		}
	}
	dl := lists[drive]
	if len(lists) == 1 {
		for i := range dl.ents {
			if !visit(dl, i) {
				return false
			}
		}
		return true
	}
	pos := make([]int, len(lists)) // each list's cursor
outer:
	for i := range dl.ents {
		name := dl.ents[i].im.Name
		for k, pl := range lists {
			if k == drive {
				continue
			}
			j := seek(pl.ents, pos[k], name)
			if pos[k] = j; j == len(pl.ents) {
				return true // every later name is past this list's last
			}
			if pl.ents[j].im.Name != name {
				continue outer
			}
		}
		if !visit(dl, i) {
			return false
		}
	}
	return true
}

// seek returns the first position at or after j whose name is not below
// name, galloping from j: O(log d) comparisons for a distance d.
func seek(ents []implEntry, j int, name string) int {
	if j >= len(ents) || ents[j].im.Name >= name {
		return j
	}
	// ents[lo] < name throughout; the answer lies in (lo, hi].
	lo, step := j, 1
	hi := lo + step
	for hi < len(ents) && ents[hi].im.Name < name {
		lo, step = hi, step*2
		hi = lo + step
	}
	hi = min(hi, len(ents))
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if ents[mid].im.Name < name {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// Pareto dominance over explored design points. A point dominates
// another when it is no worse on both cost axes (area, delay) and
// strictly better on at least one; the Pareto frontier is the set of
// non-dominated points — the paper's "answer design questions" promise
// made concrete: not the single cheapest candidate under one weighting,
// but every defensible trade-off in the explored space. Dominated
// points are not silently dropped: each carries the frontier point that
// dominates it and the margin, the ranked-near-miss explanation of
// Mishra & Jagannathan applied to design spaces.
package icdb

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"icdb/internal/genus"
	"icdb/internal/relstore"
)

// ParetoPoint is one design point as the frontier engine reports it.
// Frontier points stream with Dominated false; when a query asks for
// dominated points too, each arrives with the identity of one frontier
// point that dominates it and the (non-negative) area/delay margins.
type ParetoPoint struct {
	Exploration
	// Cost is the weighted score at the query's ranking weights, for
	// display next to the two raw axes.
	Cost float64
	// Dominated marks a point beaten by some frontier point.
	Dominated bool
	// DominatedBy is the PointID of a frontier point dominating this one
	// ("" on frontier points). Among the frontier points that dominate,
	// the reported one has the largest area not exceeding this point's —
	// the nearest frontier neighbor on the area axis.
	DominatedBy string
	// DArea and DDelay are this point's margins over the dominating
	// point: Area-dominator.Area and Delay-dominator.Delay, both >= 0
	// and at least one > 0.
	DArea  float64
	DDelay float64
}

// dominates reports whether a dominates b: no worse on both axes,
// strictly better on at least one. Equal points do not dominate each
// other, so exact duplicates both sit on the frontier.
func dominates(a, b *Exploration) bool {
	if a.Area > b.Area || a.Delay > b.Delay {
		return false
	}
	return a.Area < b.Area || a.Delay < b.Delay
}

// ParetoQuery selects and filters the design points of one frontier
// query. The zero value queries every recorded exploration.
type ParetoQuery struct {
	// Component restricts the points to one component type's design
	// space (served from the explorations relation's component index).
	Component genus.ComponentType
	// Generator restricts the points to one generator's (or estimated
	// implementation's) space. Ignored when Component is set.
	Generator string
	// Constraints filter points before dominance is computed: each point
	// exposes width, area, delay (and width_min/width_max aliasing the
	// point width) to the same Constraint vocabulary find commands use.
	// Dominance is decided among the points that survive, so constraining
	// the space re-shapes the frontier rather than punching holes in it.
	Constraints []Constraint
	// Width, when non-zero, keeps only the points explored at exactly that
	// width (they are already evaluated). A negative Width is an error.
	Width int
	// AreaWeight and DelayWeight, when non-nil, override the weights of the
	// reported Cost, each on its own (see RankWeights); dominance is
	// decided on the raw axes.
	AreaWeight, DelayWeight *float64
	// Dominated streams dominated points too (flagged, with their
	// dominator and margins) instead of the frontier alone.
	Dominated bool
}

// Pareto streams the Pareto frontier of the selected design points to
// visit in ascending area order (ties by delay, then point identity),
// the streaming-visitor contract every query path shares: visit
// returning false stops the delivery. With q.Dominated, dominated
// points stream too, interleaved in the same global order and flagged
// with an explanation. Dominance needs the whole surviving point set,
// so the stream runs over one immutable view of the query's scope, read
// in one pin with the ranking weights (see catalog), and holds no lock
// while visit runs; a query without constraints or width pin also reuses
// the view's cached sweep, and one that wants none of those nor
// dominated points streams the scope's maintained frontier.
func (db *DB) Pareto(q ParetoQuery, visit func(ParetoPoint) bool) error {
	if err := checkWidth(q.Width); err != nil {
		// An invalid width point is a query error, same as on the find
		// path — not an empty answer.
		return err
	}
	sq := scopeReq{}
	switch {
	case q.Component != "":
		nct, ok := genus.NormalizeComponentType(string(q.Component))
		if !ok {
			return fmt.Errorf("icdb: unknown component type %q", q.Component)
		}
		sq.key.ct = nct
		sq.pred = relstore.Eq("component", string(nct))
	case q.Generator != "":
		sq.key.gen = q.Generator
		sq.pred = relstore.Eq("generator", q.Generator)
	}
	filtered := len(q.Constraints) != 0 || q.Width != 0
	sq.frontOnly = !q.Dominated && !filtered
	r, err := db.read(needWeights, &sq)
	if err != nil {
		return err
	}
	wa, wd := r.weights().with(q.AreaWeight, q.DelayWeight)
	if sq.frontOnly {
		for _, pt := range r.front {
			if !visit(ParetoPoint{Exploration: *pt, Cost: pt.Area*wa + pt.Delay*wd}) {
				return nil
			}
		}
		return nil
	}
	pts := r.view.pts
	var front, domBy []int32
	if !filtered {
		front, domBy = r.view.sweep()
	} else {
		// Filtering the sorted scope preserves its order; dominance is
		// then decided among the survivors alone.
		if pts, err = paretoFilter(pts, q.Constraints, q.Width); err != nil {
			return err
		}
		front, domBy = paretoSweep(pts)
	}
	n := len(front)
	if q.Dominated {
		n = len(pts)
	}
	// Distinct dominators number at most the frontier size, far below
	// the dominated count; memoizing their rendered IDs keeps the
	// stream at O(frontier) string allocations instead of O(points).
	var domIDs map[int32]string
	for k := 0; k < n; k++ {
		i := k
		if !q.Dominated {
			i = int(front[k])
		}
		pt := pts[i]
		p := ParetoPoint{Exploration: *pt, Cost: pt.Area*wa + pt.Delay*wd}
		if by := domBy[i]; by >= 0 {
			dom := pts[by]
			if domIDs == nil {
				domIDs = make(map[int32]string, 8)
			}
			id, ok := domIDs[by]
			if !ok {
				id = dom.PointID()
				domIDs[by] = id
			}
			p.Dominated = true
			p.DominatedBy = id
			p.DArea = pt.Area - dom.Area
			p.DDelay = pt.Delay - dom.Delay
		}
		if !visit(p) {
			return nil
		}
	}
	return nil
}

// ParetoFrontier materializes the frontier of one query, in the same
// order Pareto streams it.
func (db *DB) ParetoFrontier(q ParetoQuery) ([]ParetoPoint, error) {
	var out []ParetoPoint
	err := db.Pareto(q, func(p ParetoPoint) bool {
		out = append(out, p)
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// The frontier cache.
//
// Row decode plus the sweep sort dominate a cold frontier query, so the
// engine keeps each query scope it has served — the whole relation, one
// component type's points, one generator's — decoded and pointLess-
// sorted, and keeps those scopes current across the database's own
// writes instead of rebuilding them. It is the catalog's explorations
// part (see catalog), with the relation's generation as the stamp of
// every cached scope at once:
//
//   - A frontier query pins its scope and the stamp with the ranking
//     weights and checks both after the pin; a stale or missing scope is
//     built from the snapshot its ScanTables pinned (installScope), and
//     a stale cache dropped for it. RecordExploration — the single funnel
//     for Generate, EstimateImpl and Explore — moves the stamp from its
//     upsert's Before to its After, appending its own delta to every
//     cached scope the point belongs to, only when the stamp equals
//     Before; like every registration it holds wmu from before the upsert
//     until the delta is in. Any other write leaves the stamp behind, and
//     the next query rebuilds.
//   - Readers need no lock while streaming: a scope's folded state is an
//     immutable explView. A delta is appended to the scope's pending
//     lists (O(1) per write) and folded copy-on-write into a fresh view
//     by the next query that needs every point of that scope (dominated
//     points, or constraints), so a stream in flight keeps exactly the
//     slice it started on.
//   - A query for the frontier of a whole scope and nothing else — what a
//     tool asks between two writes — does not even fold: while only adds
//     are pending, the scope's frontier is the frontier of its last
//     answer and the adds since (explScope.frontier), a sweep over tens
//     of points that leaves no scope-sized garbage behind. A pending
//     delete sends it down the fold path first.
//
// Everything below hangs off DB.pmu.
type explCache struct {
	gen    uint64
	scopes map[scopeKey]*explScope
}

// scopeKey names one query scope; the zero value is the whole relation.
// A ParetoQuery sets at most one of the two fields (Component wins).
type scopeKey struct {
	ct  genus.ComponentType
	gen string
}

// explScope is one cached scope: its last folded view plus the deltas
// recorded since. adds holds the points that entered the scope, in
// commit order; dels the old values of the points that left it (a
// re-record contributes one of each, unless it moved the point between
// component scopes).
type explScope struct {
	view       *explView
	adds, dels []*Exploration
	// front is the frontier of view plus adds[:frontAdds], nil until a
	// query asks for it (frontier). Like a view it is immutable once
	// handed out: absorbing further adds builds a fresh slice.
	front     []*Exploration
	frontAdds int
}

// explFoldAt bounds a scope's pending deltas: the write that reaches it
// folds them, so a scope nobody queries again costs O(points/explFoldAt)
// per write instead of growing without limit.
const explFoldAt = 1024

// explView is one immutable state of a scope: the points in sweep
// order, plus the sweep over all of them, computed once by the first
// unconstrained query that needs it and shared from then on.
type explView struct {
	pts       []*Exploration
	sweepOnce sync.Once
	front     []int32
	domBy     []int32
}

func (v *explView) sweep() (front, domBy []int32) {
	v.sweepOnce.Do(func() { v.front, v.domBy = paretoSweep(v.pts) })
	return v.front, v.domBy
}

// frontier returns the view's non-dominated points, in sweep order.
func (v *explView) frontier() []*Exploration {
	front, _ := v.sweep()
	return pick(v.pts, front)
}

func pick(pts []*Exploration, idx []int32) []*Exploration {
	out := make([]*Exploration, len(idx))
	for k, i := range idx {
		out[k] = pts[i]
	}
	return out
}

// ParetoCacheInfo counts what the frontier cache did for the queries
// and writes it saw: the figures behind "show server"'s frontier cache
// line.
type ParetoCacheInfo struct {
	// Hits counts frontier queries served from a cached scope.
	Hits uint64
	// Deltas counts RecordExploration writes applied to the cache in
	// place of a rebuild.
	Deltas uint64
	// Rebuilds counts scope builds from a relation scan, by cause: the
	// scope had not been queried since the cache was last (re)started, or
	// a write that bypassed RecordExploration moved the relation on.
	RebuildsCold, RebuildsForeign uint64
	// Scopes is the number of scopes cached right now.
	Scopes int
}

// ParetoCacheInfo snapshots the frontier cache counters.
func (db *DB) ParetoCacheInfo() ParetoCacheInfo {
	db.pmu.Lock()
	defer db.pmu.Unlock()
	info := db.explInfo
	info.Hits = db.explHits.Load()
	if db.expl != nil {
		info.Scopes = len(db.expl.scopes)
	}
	return info
}

// noteExploration applies one effective RecordExploration upsert to the
// frontier cache, when the cache stands exactly where that upsert found
// the relation. The caller has held wmu since before the upsert, and
// holds pmu.
func (db *DB) noteExploration(res relstore.UpsertResult, e Exploration) {
	c := db.expl
	if c == nil || c.gen != res.Before {
		// Nothing cached, or some earlier write never reached the cache:
		// applying ours on top would hide the gap.
		return
	}
	add := &e
	var del *Exploration
	if res.Replaced != nil {
		old := rowExpl(res.Replaced)
		del = &old
	}
	c.note(scopeKey{}, del, add)
	c.note(scopeKey{gen: add.Generator}, del, add)
	if del == nil || del.Component == add.Component {
		c.note(scopeKey{ct: add.Component}, del, add)
	} else {
		c.note(scopeKey{ct: del.Component}, del, nil)
		c.note(scopeKey{ct: add.Component}, nil, add)
	}
	c.gen = res.After
	db.explInfo.Deltas++
}

// note queues one delta on scope key, if that scope is cached: del (the
// replaced point's old value) leaves the scope, add enters it; either
// may be nil.
func (c *explCache) note(key scopeKey, del, add *Exploration) {
	sc := c.scopes[key]
	if sc == nil {
		return
	}
	if del != nil {
		sc.dels = append(sc.dels, del)
	}
	if add != nil {
		sc.adds = append(sc.adds, add)
	}
	if len(sc.adds)+len(sc.dels) >= explFoldAt && !sc.fold() {
		delete(c.scopes, key)
	}
}

// fold merges the pending deltas into a fresh view, leaving the old one
// untouched for the readers still streaming it. It reports false when
// a delta names a point the view does not hold; the scope is then
// unusable.
//
// One pass in sweep order: each value the deltas name is located in the
// old slice by binary search and the stretch before it block-copied, so
// a handful of deltas cost a memmove of the scope, not a walk of it.
// Equal values (one point re-recorded back to an earlier value inside
// the batch) are matched oldest first — the view's entry, then the
// batch's adds in commit order — which is the order the deltas removed
// them in.
func (sc *explScope) fold() bool {
	adds, dels := sc.adds, sc.dels
	if len(adds)+len(dels) == 0 {
		return true
	}
	sort.SliceStable(adds, func(i, j int) bool { return pointLess(adds[i], adds[j]) })
	sort.Slice(dels, func(i, j int) bool { return pointLess(dels[i], dels[j]) })
	base := sc.view.pts
	out := make([]*Exploration, 0, max(0, len(base)+len(adds)-len(dels)))
	for len(adds) > 0 || len(dels) > 0 {
		var v *Exploration
		switch {
		case len(dels) == 0 || (len(adds) > 0 && pointLess(adds[0], dels[0])):
			v = adds[0]
		default:
			v = dels[0]
		}
		cut := sort.Search(len(base), func(i int) bool { return !pointLess(base[i], v) })
		out = append(out, base[:cut]...)
		base = base[cut:]
		nBase, nAdd, nDel := 0, 0, 0
		if len(base) > 0 && samePoint(base[0], v) {
			nBase = 1 // one point per key: at most one entry can equal v
		}
		for nAdd < len(adds) && samePoint(adds[nAdd], v) {
			nAdd++
		}
		for nDel < len(dels) && samePoint(dels[nDel], v) {
			nDel++
		}
		if nAdd+nDel == 0 || nDel > nBase+nAdd {
			return false
		}
		skip := nDel
		if nBase == 1 {
			if skip > 0 {
				skip--
			} else {
				out = append(out, base[0])
			}
			base = base[1:]
		}
		out = append(out, adds[skip:nAdd]...)
		adds, dels = adds[nAdd:], dels[nDel:]
	}
	sc.view = &explView{pts: append(out, base...)}
	clear(sc.adds)
	clear(sc.dels)
	sc.adds, sc.dels = sc.adds[:0], sc.dels[:0]
	sc.front, sc.frontAdds = nil, 0
	return true
}

// frontier returns the frontier of the scope's current contents — its
// view and every pending add — without folding; the caller has checked
// that no delete is pending. A dominated point stays dominated when
// points are added, so the frontier of a set and some additions is the
// frontier of the set's frontier and the additions: the sweep runs over
// those few points instead of the scope, and each query extends the
// previous one's answer by the adds recorded since.
func (sc *explScope) frontier() []*Exploration {
	if sc.front == nil {
		sc.front = sc.view.frontier()
	}
	if sc.frontAdds == len(sc.adds) {
		return sc.front
	}
	// With no delete pending every add is a point the scope did not hold
	// (one point per key), so the merge never meets two equal values.
	fresh := append([]*Exploration(nil), sc.adds[sc.frontAdds:]...)
	sort.Slice(fresh, func(i, j int) bool { return pointLess(fresh[i], fresh[j]) })
	merged := make([]*Exploration, 0, len(sc.front)+len(fresh))
	old := sc.front
	for len(old) > 0 && len(fresh) > 0 {
		if pointLess(fresh[0], old[0]) {
			merged, fresh = append(merged, fresh[0]), fresh[1:]
		} else {
			merged, old = append(merged, old[0]), old[1:]
		}
	}
	merged = append(append(merged, old...), fresh...)
	front, _ := paretoSweep(merged)
	sc.front, sc.frontAdds = pick(merged, front), len(sc.adds)
	return sc.front
}

// paretoFilter returns the points of a sorted scope that survive the
// query constraints and width pin, order preserved.
func paretoFilter(all []*Exploration, cs []Constraint, width int) ([]*Exploration, error) {
	var pts []*Exploration
	var s slots
	for _, e := range all {
		ok, err := paretoAccept(cs, width, e, &s)
		if err != nil {
			return nil, err
		}
		if ok {
			pts = append(pts, e)
		}
	}
	return pts, nil
}

// pointLess is the engine's total order over design points: area, then
// delay, then generator and bindings as the deterministic tie-break.
func pointLess(a, b *Exploration) bool {
	if a.Area != b.Area {
		return a.Area < b.Area
	}
	if a.Delay != b.Delay {
		return a.Delay < b.Delay
	}
	if a.Generator != b.Generator {
		return a.Generator < b.Generator
	}
	return a.Bindings < b.Bindings
}

// samePoint reports whether a and b sit at the same place in the
// pointLess order: same identity, same axes.
func samePoint(a, b *Exploration) bool {
	return a.Area == b.Area && a.Delay == b.Delay && a.Generator == b.Generator && a.Bindings == b.Bindings
}

// paretoAccept runs the query constraints over one design point's
// attribute view. The point exposes its evaluated axes plus a width
// range collapsed to the single explored width, so the "width = 8"
// sugar and width_min/width_max comparisons mean the obvious thing.
// Like the find path, it loads the caller's one slot vector — all six
// slots: an explored point always has a width — and checks the width pin
// after the constraints.
func paretoAccept(cs []Constraint, width int, e *Exploration, s *slots) (bool, error) {
	w := float64(e.Width)
	s.v = [numSlots]float64{
		slotWidthMin: w, slotWidthMax: w, slotWidth: w,
		slotArea: e.Area, slotDelay: e.Delay, slotStages: 0,
	}
	s.have = haveAll
	for i := range cs {
		pass, err := cs[i].accept(s)
		if err != nil || !pass {
			return false, err
		}
	}
	return width == 0 || width == e.Width, nil
}

// paretoSweep partitions sorted points into frontier and dominated in
// one sweep. pts MUST be sorted by pointLess. front lists the indexes of
// the non-dominated points, ascending; domBy[i] is -1 for those, and
// for a dominated point the index of the frontier point reported as its
// dominator — the one with the largest area not exceeding pts[i]'s (its
// nearest frontier neighbor area-wise), which by the sweep invariant
// holds the minimum delay among all points at or below that area.
//
// The sweep is O(n) after the sort: walking areas in ascending order,
// a point is on the frontier exactly when its delay is strictly below
// every smaller-area point's best delay and equal to its own area
// group's minimum. Exact duplicates share a group minimum and are all
// frontier — equality dominates nothing.
func paretoSweep(pts []*Exploration) (front, domBy []int32) {
	n := len(pts)
	domBy = make([]int32, n)
	bestDelay := math.Inf(1)
	bestIdx := -1
	for g := 0; g < n; {
		// One equal-area group: pts[g:end). Sorted by delay within the
		// group, so pts[g] holds the group minimum.
		end := g + 1
		for end < n && pts[end].Area == pts[g].Area {
			end++
		}
		groupMin := pts[g].Delay
		for i := g; i < end; i++ {
			switch {
			case groupMin < bestDelay && pts[i].Delay == groupMin:
				// Strictly better than every smaller-area point and tied
				// for best in its own area group: non-dominated.
				domBy[i] = -1
				front = append(front, int32(i))
			case groupMin < bestDelay:
				// Beaten within its own area group: same area, strictly
				// smaller delay.
				domBy[i] = int32(g)
			default:
				// Some smaller-area point is at least as fast: it
				// dominates everything in this group.
				domBy[i] = int32(bestIdx)
			}
		}
		if groupMin < bestDelay {
			bestDelay, bestIdx = groupMin, g
		}
		g = end
	}
	return front, domBy
}

// bruteForceFrontier is the O(n²) dominance reference: a point is on the
// frontier iff no other point dominates it. It exists for the property
// tests that cross-validate the sweep and for small ad-hoc callers that
// prefer the obviously correct form.
func bruteForceFrontier(pts []Exploration) []bool {
	frontier := make([]bool, len(pts))
	for i := range pts {
		dominated := false
		for j := range pts {
			if i != j && dominates(&pts[j], &pts[i]) {
				dominated = true
				break
			}
		}
		frontier[i] = !dominated
	}
	return frontier
}

// CheckFrontier asserts the dominance postcondition over an arbitrary
// point set and its claimed frontier: every claimed point is dominated
// by nothing, and every omitted point is dominated by some claimed
// point. It is the property the tests (and paranoid callers) hold the
// sweep to.
func CheckFrontier(pts []Exploration, frontier []bool) error {
	if len(pts) != len(frontier) {
		return fmt.Errorf("icdb: frontier mask covers %d of %d points", len(frontier), len(pts))
	}
	for i := range pts {
		if frontier[i] {
			for j := range pts {
				if dominates(&pts[j], &pts[i]) {
					return fmt.Errorf("icdb: frontier point %s is dominated by %s",
						pts[i].PointID(), pts[j].PointID())
				}
			}
			continue
		}
		dominated := false
		for j := range pts {
			if frontier[j] && dominates(&pts[j], &pts[i]) {
				dominated = true
				break
			}
		}
		if !dominated {
			return fmt.Errorf("icdb: omitted point %s is not dominated by any frontier point", pts[i].PointID())
		}
	}
	return nil
}

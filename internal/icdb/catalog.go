package icdb

import (
	"cmp"
	"fmt"
	"sort"
	"sync/atomic"

	"icdb/internal/relstore"
)

// The catalog is the DB's derived read state, one part per relation a
// query reads through a cache: the decoded implementations with their
// inverted indexes, the compiled estimators, the ranking weights, and the
// frontier's design-point scopes (explCache, under pmu, as it is built
// one query scope at a time). Each part carries the generation
// (TableGeneration) of the state of its relation it equals, and one rule
// makes every answer come from one state of the store:
//
//   - A reader pins once — the parts it needs, marked shared, and for a
//     frontier query its scope and the scope's stamp — and then checks
//     each stamp against its relation's TableGeneration, a lock-free
//     load. Every stamp is a fresh draw from one store-wide counter and
//     was its relation's generation before the pin, so one that still
//     reads the same after the pin proves its relation held that state
//     throughout: the parts that pass all held together at the first
//     check.
//   - A reader that finds a part stale takes the writer mutex wmu, re-pins
//     and re-checks (a registration's delta may have landed meanwhile;
//     then nothing is rebuilt), and otherwise pins every relation it
//     needs at once (relstore's ScanTables) and rebuilds only the parts
//     whose stamp differs from that pin. The rebuild never loops.
//   - A registration (RegisterImpl, RegisterEstimator, RecordExploration)
//     holds wmu from before its upsert until its delta is in, and applies
//     the delta only when its part's stamp equals the upsert's Before. It
//     replaces its own part and no other, cloning the value first when a
//     reader holds it. A clone copies spines, not contents: the
//     implementations part's clone shares every posting list, and
//     RegisterImpl's delta then copies only the lists it touches. Any
//     other write — SetToolParam, or one made directly through Store() —
//     leaves the stamp behind: a part can be stale, never wrong.
//   - Parts are lazy: a width-free query never reads (or, under a lazy
//     open, decodes) the estimators relation. A width query joins each
//     posting list it walks to the estimators part it pinned, once per
//     (list, part), and caches the join on the list (DB.join): a pinned
//     part never changes and a delta always installs a new one, so the
//     join needs no stamp of its own.
//
// wmu also runs cold builds one at a time rather than racing several
// scans for the same cores and memory (on a 100k-implementation catalog,
// racing builds left the queries that followed slower).

// partID names a catalog part; partTables maps it to its relation.
type partID int

const (
	partImpls   partID = iota // *derived
	partEsts                  // estMap
	partWeights               // rankWeights
	numParts
)

var partTables = [numParts]string{TableImplementations, TableEstimators, TableToolParams}

// need is a set of parts, a bit per partID.
type need uint8

const (
	needImpls   need = 1 << partImpls
	needEsts    need = 1 << partEsts
	needWeights need = 1 << partWeights
)

// part is one built part: its value and the generation it equals.
type part struct {
	val    any // *derived, estMap or rankWeights, by partID
	gen    uint64
	shared atomic.Bool // set by a pin; a delta then clones the value
}

// catalog holds the DB's current parts, nil where none is built.
type catalog [numParts]*part

// reading is one reader's pin: the parts it needs and, for a frontier
// query, its scope (view, or frontier alone) and its cache's stamp egen.
type reading struct {
	need  need
	cat   catalog
	sq    *scopeReq
	view  *explView
	front []*Exploration
	hit   bool // the scope came from the cache
	egen  uint64
}

func (r *reading) impls() *derived      { return r.cat[partImpls].val.(*derived) }
func (r *reading) ests() estMap         { return r.cat[partEsts].val.(estMap) }
func (r *reading) weights() rankWeights { return r.cat[partWeights].val.(rankWeights) }

// scopeReq is a frontier query's scope: its cache key, the predicate
// selecting its points, and whether the query streams its frontier and
// nothing else (answered without a fold, see explScope.frontier).
type scopeReq struct {
	key       scopeKey
	pred      relstore.Pred
	frontOnly bool
}

// read returns the parts in n and, for a frontier query, sq's scope, all
// of one store version.
func (db *DB) read(n need, sq *scopeReq) (r reading, err error) {
	defer func() {
		if err == nil && r.hit {
			db.explHits.Add(1)
		}
	}()
	r = db.pin(n, sq)
	if db.afterPin != nil {
		db.afterPin()
	}
	if ok, err := r.current(db.store); ok || err != nil {
		return r, err
	}
	db.wmu.Lock()
	defer db.wmu.Unlock()
	r = db.pin(n, sq)
	if ok, err := r.current(db.store); ok || err != nil {
		return r, err
	}
	err = db.rebuild(&r)
	return r, err
}

// pin takes the parts in n and sq's scope, checking nothing.
func (db *DB) pin(n need, sq *scopeReq) reading {
	r := reading{need: n, sq: sq}
	db.catMu.RLock()
	for p, pt := range db.cat {
		if pt != nil && n&(1<<p) != 0 {
			if !pt.shared.Load() {
				pt.shared.Store(true)
			}
			r.cat[p] = pt
		}
	}
	db.catMu.RUnlock()
	if sq == nil {
		return r
	}
	db.pmu.Lock()
	defer db.pmu.Unlock()
	if c := db.expl; c != nil {
		r.egen = c.gen
		// A point that left the scope may uncover points it used to
		// dominate: only a folded view can tell.
		switch sc := c.scopes[sq.key]; {
		case sc == nil:
		case (sq.frontOnly && len(sc.dels) == 0) || sc.fold():
			r.hit, r.view = true, sc.view
			if sq.frontOnly {
				r.front = sc.frontier()
			}
		default:
			// The deltas did not line up with the view (only unordered
			// values — NaN axes — can do that): rebuild the scope.
			delete(c.scopes, sq.key)
		}
	}
	return r
}

// current checks every part r needs, and its scope, against the
// relation's generation.
func (r *reading) current(store *relstore.Store) (bool, error) {
	for p, pt := range r.cat {
		if r.need&(1<<p) == 0 {
			continue
		}
		if pt == nil {
			return false, nil
		}
		if gen, err := store.TableGeneration(partTables[p]); err != nil || gen != pt.gen {
			return false, err
		}
	}
	if r.sq == nil {
		return true, nil
	}
	gen, err := store.TableGeneration(TableExplorations)
	return r.hit && gen == r.egen, err
}

// rebuild pins every relation r needs at once, rebuilds the parts whose
// stamp differs from that pin, and installs them. The caller holds wmu,
// so no delta moves a stamp meanwhile.
func (db *DB) rebuild(r *reading) error {
	var scans []relstore.TableScan
	var vals [numParts]any
	var berr error
	for p := range numParts {
		if r.need&(1<<p) != 0 {
			sc := relstore.TableScan{Table: partTables[p]}
			if pt := r.cat[p]; pt != nil {
				sc.Have = &pt.gen
			}
			sc.Pred, sc.Visit = db.builder(p, &vals[p], &berr)
			scans = append(scans, sc)
		}
	}
	var pts []Exploration
	if r.sq != nil {
		sc := relstore.TableScan{Table: TableExplorations, Pred: r.sq.pred, Visit: func(row relstore.Row) bool {
			pts = append(pts, rowExpl(row))
			return true
		}}
		if egen := r.egen; r.hit {
			sc.Have = &egen // not &r.egen: r stays on its caller's stack
		}
		scans = append(scans, sc)
	}
	if err := db.store.ScanTables(scans); err != nil || berr != nil {
		return cmp.Or(err, berr)
	}
	if d, ok := vals[partImpls].(*derived); ok {
		d.seal() // the posting lists, from one sort by name
	}
	k := 0
	for p := range numParts {
		if r.need&(1<<p) == 0 {
			continue
		}
		if sc := scans[k]; !held(sc) {
			pt := &part{val: vals[p], gen: sc.Gen}
			pt.shared.Store(true)
			r.cat[p] = pt
			db.rebuilds[p].Add(1)
			db.catMu.Lock()
			db.cat[p] = pt
			db.catMu.Unlock()
		}
		k++
	}
	if r.sq != nil && !held(scans[k]) {
		db.installScope(r, pts, scans[k].Gen)
	}
	return nil
}

// held reports whether sc's pin found the state its caller holds.
func held(sc relstore.TableScan) bool { return sc.Have != nil && *sc.Have == sc.Gen }

// builder starts a rebuild of part p into *val: the predicate and row
// visitor of its scan. A row it cannot take stops the scan with *err.
func (db *DB) builder(p partID, val *any, err *error) (relstore.Pred, func(relstore.Row) bool) {
	switch p {
	case partImpls:
		d := newDerived()
		*val = d
		return nil, func(r relstore.Row) bool {
			im := rowImpl(r)
			d.add(&im)
			return true
		}
	case partEsts:
		// Each row costs a lookup of its expression in the intern table;
		// only a source text not seen before is parsed and compiled.
		m := estMap{}
		*val = m
		return nil, func(r relstore.Row) bool {
			if len(m) == 0 {
				// Sized up front (one entry per implementation, a row per
				// attribute): growing a map to catalog size leaves as much
				// garbage as the map.
				n, _ := db.store.Count(TableEstimators, nil)
				m = make(estMap, n/len(EstimatorAttrs()))
				*val = m
			}
			impl, attr := asString(r["impl"]), asString(r["attr"])
			p, perr := db.intern(asString(r["expr"]))
			if perr != nil {
				*err = fmt.Errorf("icdb: estimator %s(%s): %w", attr, impl, perr)
				return false
			}
			m[impl] = m[impl].with(attr, p)
			return true
		}
	}
	// Tool "icdb"'s area_weight and delay_weight, each 1 when unset.
	w := &rankWeights{area: 1, delay: 1}
	*val = *w
	return relstore.Eq("tool", "icdb"), func(r relstore.Row) bool {
		switch asString(r["param"]) {
		case "area_weight":
			w.area = asFloat(r["value"])
		case "delay_weight":
			w.delay = asFloat(r["value"])
		}
		*val = *w
		return true
	}
}

// installScope builds r's scope from its points, scanned at generation
// gen, hands it to r and caches it. The caller holds wmu, so the cache's
// stamp cannot move meanwhile.
func (db *DB) installScope(r *reading, pts []Exploration, gen uint64) {
	// One contiguous backing array, sorted, then addressed: a cold view
	// walks memory in sweep order.
	sort.Slice(pts, func(i, j int) bool { return pointLess(&pts[i], &pts[j]) })
	v := &explView{pts: make([]*Exploration, len(pts))}
	for i := range pts {
		v.pts[i] = &pts[i]
	}
	sc := &explScope{view: v}
	r.view, r.hit = v, false
	if r.sq.frontOnly {
		r.front = sc.frontier()
	}
	db.pmu.Lock()
	defer db.pmu.Unlock()
	why := &db.explInfo.RebuildsCold
	if c := db.expl; c != nil && c.gen == gen {
		c.scopes[r.sq.key] = sc
	} else {
		if c != nil {
			// Scopes stamped earlier are unusable from here on: start over.
			why = &db.explInfo.RebuildsForeign
		}
		db.expl = &explCache{gen: gen, scopes: map[scopeKey]*explScope{r.sq.key: sc}}
	}
	*why++
}

// upsert writes row to part p's relation and, when the part stands where
// the upsert found the relation, brings it to the upsert's After with
// delta — which must leave the value exactly what a rebuild after the
// write would hold, on a clone when shared is set.
func (db *DB) upsert(p partID, row relstore.Row, delta func(val any, shared bool) any) error {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	res, err := db.store.UpsertStamped(partTables[p], row)
	if err != nil || res.Before == res.After {
		return err
	}
	db.catMu.Lock()
	defer db.catMu.Unlock()
	if pt := db.cat[p]; pt != nil && pt.gen == res.Before {
		db.cat[p] = &part{val: delta(pt.val, pt.shared.Load()), gen: res.After}
	}
	return nil // otherwise nothing is built, or it is stale already
}

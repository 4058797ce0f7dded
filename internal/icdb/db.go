// Package icdb implements the Intelligent Component Database engine of
// Chen & Gajski (DAC'90): a relational database of microarchitecture
// components that behavioral-synthesis tools query by function. The
// database keeps four relations (components, implementations, instances,
// tool parameters) in a relstore.Store (the INGRES stand-in), classifies
// implementations with the GENUS taxonomy from package genus, and stores
// each implementation's parameterized structure as IIF source text that
// package expand turns into flat equation networks on demand.
package icdb

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"icdb/internal/genus"
	"icdb/internal/iif"
	"icdb/internal/relstore"
)

// Table names of the ICDB relational schema (§3 of the paper). The
// generators and estimators relations hold the paper's component
// generators (procedures emitting implementations on demand, see
// Generator/Generate) and parameterized cost estimators (see
// RegisterEstimator/Query.Width).
const (
	TableComponents      = "components"
	TableImplementations = "implementations"
	TableInstances       = "instances"
	TableToolParams      = "tool_params"
	TableGenerators      = "generators"
	TableEstimators      = "estimators"
	TableExplorations    = "explorations"
)

// Schemas returns the relational schema of every ICDB table.
func Schemas() []relstore.Schema {
	return []relstore.Schema{
		{
			Table: TableComponents,
			Columns: []relstore.Column{
				{Name: "component", Type: relstore.TString},
				{Name: "functions", Type: relstore.TString},
			},
			Key: []string{"component"},
		},
		{
			Table: TableImplementations,
			Columns: []relstore.Column{
				{Name: "name", Type: relstore.TString},
				{Name: "component", Type: relstore.TString},
				{Name: "style", Type: relstore.TString},
				{Name: "functions", Type: relstore.TString},
				{Name: "width_min", Type: relstore.TInt},
				{Name: "width_max", Type: relstore.TInt},
				{Name: "stages", Type: relstore.TInt},
				{Name: "area", Type: relstore.TFloat},
				{Name: "delay", Type: relstore.TFloat},
				{Name: "params", Type: relstore.TString},
				{Name: "source", Type: relstore.TString},
			},
			Key: []string{"name"},
		},
		{
			Table: TableInstances,
			Columns: []relstore.Column{
				{Name: "id", Type: relstore.TInt},
				{Name: "impl", Type: relstore.TString},
				{Name: "bindings", Type: relstore.TString},
				{Name: "design", Type: relstore.TString},
				{Name: "uses", Type: relstore.TInt},
			},
			Key: []string{"impl", "bindings"},
		},
		{
			Table: TableToolParams,
			Columns: []relstore.Column{
				{Name: "tool", Type: relstore.TString},
				{Name: "param", Type: relstore.TString},
				{Name: "value", Type: relstore.TFloat},
			},
			Key: []string{"tool", "param"},
		},
		{
			Table: TableGenerators,
			Columns: []relstore.Column{
				{Name: "name", Type: relstore.TString},
				{Name: "component", Type: relstore.TString},
				{Name: "style", Type: relstore.TString},
				{Name: "functions", Type: relstore.TString},
				{Name: "width_min", Type: relstore.TInt},
				{Name: "width_max", Type: relstore.TInt},
				{Name: "stages", Type: relstore.TInt},
				{Name: "params", Type: relstore.TString},
				{Name: "area_expr", Type: relstore.TString},
				{Name: "delay_expr", Type: relstore.TString},
				{Name: "source", Type: relstore.TString},
			},
			Key: []string{"name"},
			// Serves GeneratorsByComponent (the expander's generator
			// fallback and CQL "generate <component>") from a posting list.
			Indexes: []relstore.Index{{Columns: []string{"component"}}},
		},
		{
			Table: TableEstimators,
			Columns: []relstore.Column{
				{Name: "impl", Type: relstore.TString},
				{Name: "attr", Type: relstore.TString},
				{Name: "expr", Type: relstore.TString},
			},
			Key: []string{"impl", "attr"},
			// Serves Estimators(impl) — all of one implementation's
			// estimator rows — from a posting list.
			Indexes: []relstore.Index{{Columns: []string{"impl"}}},
		},
		{
			Table: TableExplorations,
			Columns: []relstore.Column{
				{Name: "generator", Type: relstore.TString},
				{Name: "bindings", Type: relstore.TString},
				{Name: "component", Type: relstore.TString},
				{Name: "width", Type: relstore.TInt},
				{Name: "area", Type: relstore.TFloat},
				{Name: "delay", Type: relstore.TFloat},
			},
			// One row per evaluated design point: the generator (or
			// implementation, for estimate results) and its canonical
			// binding string identify the point, so re-sweeping a range
			// upserts value-equal rows — journal-silent no-ops.
			Key: []string{"generator", "bindings"},
			// Serve Pareto(component) and Pareto(generator) from posting
			// lists instead of full scans.
			Indexes: []relstore.Index{
				{Columns: []string{"component"}},
				{Columns: []string{"generator"}},
			},
		},
	}
}

// Impl is one row of the implementations relation: a (possibly
// parameterized) realization of a GENUS component type. Source holds the
// IIF text of the parameterized structure; Params names the IIF PARAMETER
// variables in declaration order. Area and Delay are per-bit estimates
// used by the query ranker.
//
// WidthMin/WidthMax constrain the value bound to the parameter named
// "size" — the GENUS width-parameter convention every builtin follows.
// Implementations whose width parameter has a different name are not
// range-checked at expansion time.
type Impl struct {
	Name      string
	Component genus.ComponentType
	Style     string
	Functions []genus.Function
	WidthMin  int
	WidthMax  int
	Stages    int
	Area      float64
	Delay     float64
	Params    []string
	Source    string
}

// Attrs exposes the implementation's attributes in map form, for callers
// of Constraint.Accept. The query engine does not go through it: it loads
// the same five attributes into a slot vector (slots.fillImpl).
func (im Impl) Attrs() Attrs {
	return Attrs{
		"width_min": float64(im.WidthMin),
		"width_max": float64(im.WidthMax),
		"stages":    float64(im.Stages),
		"area":      im.Area,
		"delay":     im.Delay,
	}
}

// DB is the component database engine. It wraps a relstore.Store holding
// the four ICDB relations and serializes read-modify-write sequences.
//
// On top of the store, a DB maintains derived read-path state: a cache of
// decoded implementations plus inverted indexes from function and
// component type to the implementations carrying them, so query-by-
// function intersects posting lists instead of scanning and re-decoding
// the implementations relation. The derived state is built lazily, kept
// current by RegisterImpl and SetToolParam, and dropped wholesale by
// InvalidateCaches; writes that bypass the DB (directly through Store())
// must call InvalidateCaches to be seen by queries.
type DB struct {
	store *relstore.Store
	mu    sync.Mutex
	// nextInstID is the next instance ID to allocate; 0 means not yet
	// computed from the store (guarded by mu).
	nextInstID int

	// cmu guards the der/est pointers and the weight cache below. The
	// derived state itself lives in copy-on-write snapshots (same
	// discipline as relstore's tableData): readers pin the current
	// snapshot under a brief RLock and iterate it lock-free, so streamed
	// query visitors may take as long as they like — and re-enter the DB —
	// without blocking RegisterImpl or each other.
	//
	// The two pieces build independently, each from a scan of only its
	// own relation (ensureIndexes / ensureEstimators): a width-free query
	// touches implementations but never estimators, and a lazily opened
	// store (relstore.OpenLazy) hydrates only the relations the session's
	// queries actually reach.
	cmu sync.RWMutex
	der *derived  // impl cache + inverted indexes; nil until built
	est *estCache // per-implementation estimators; nil until built
	// progs interns estimator expressions by source text: one parsed and
	// compiled program per distinct expression, shared by every
	// implementation (estCache) and generator (GeneratorCost) that carries
	// it. A program is a pure function of its source, so the table is never
	// stale and InvalidateCaches leaves it alone; it holds what the
	// estimators and generators relations hold, de-duplicated. Programs are
	// immutable once published; the map is written under cmu.Lock only.
	progs map[string]*estProg
	// Cached ranking weights (tool "icdb"), refreshed after SetToolParam.
	// wVer counts the invalidations (SetToolParam, InvalidateCaches), so a
	// reader whose tool-parameter read raced one does not cache what it
	// read (see rankWeights).
	wa, wd float64
	wOK    bool
	wVer   uint64

	// pmu guards the frontier engine's design-point cache and its
	// counters: decoded, sweep-ordered exploration sets per query scope,
	// stamped with the explorations relation's own generation. Frontier
	// queries rebuild a scope whose stamp has fallen behind;
	// RecordExploration advances the stamp together with its own delta;
	// nobody else writes it, so a mutation made any other way — directly
	// through Store() included — invalidates the cache without a hook
	// (the contract is spelled out at explCache in pareto.go). Queries
	// hold pmu only for pointer swaps, folds and frontier merges, never
	// across a store call or a visitor; RecordExploration holds it across
	// its one upsert, so that upsert and delta are one step to everybody
	// else.
	pmu      sync.Mutex
	expl     *explCache
	explInfo ParetoCacheInfo

	// rmu serializes RegisterImpl's store write with its cache update.
	rmu sync.Mutex
}

// derived is one immutable-once-shared snapshot of the DB's derived
// read-path state over the implementations relation: the decoded-
// implementation cache and the two inverted indexes. Cached *Impl
// values are shared between snapshots and treated as immutable;
// mutators swap in fresh values instead of editing in place.
//
// shared flips to true the moment a reader pins the snapshot
// (derivedSnap, under cmu.RLock); mutators (under cmu.Lock) then clone
// before writing (writableDerived). RLock and Lock are mutually
// exclusive, so the flag is always seen by a would-be writer before the
// maps are touched.
type derived struct {
	impls map[string]*Impl                         // name -> decoded implementation
	byFn  map[genus.Function]map[string]*Impl      // function -> posting map
	byCt  map[genus.ComponentType]map[string]*Impl // component type -> posting map
	// order lists the cached implementations in the implementations
	// relation's insertion order (a re-registered name keeps its place,
	// like the row it upserts), so whole-catalog walks need neither the
	// store's rows nor a sort.
	order  []*Impl
	shared atomic.Bool
}

func newDerived() *derived {
	return &derived{
		impls: make(map[string]*Impl),
		byFn:  make(map[genus.Function]map[string]*Impl),
		byCt:  make(map[genus.ComponentType]map[string]*Impl),
	}
}

// clone deep-copies the snapshot's spines — outer maps, posting maps
// and the order slice — sharing the *Impl values, which are immutable.
// The clone starts unshared: the writer owns it until the next reader
// pins it.
func (d *derived) clone() *derived {
	nd := &derived{
		order: slices.Clone(d.order),
		impls: make(map[string]*Impl, len(d.impls)),
		byFn:  make(map[genus.Function]map[string]*Impl, len(d.byFn)),
		byCt:  make(map[genus.ComponentType]map[string]*Impl, len(d.byCt)),
	}
	for k, v := range d.impls {
		nd.impls[k] = v
	}
	for f, post := range d.byFn {
		np := make(map[string]*Impl, len(post))
		for k, v := range post {
			np[k] = v
		}
		nd.byFn[f] = np
	}
	for ct, post := range d.byCt {
		np := make(map[string]*Impl, len(post))
		for k, v := range post {
			np[k] = v
		}
		nd.byCt[ct] = np
	}
	return nd
}

// estCache is the estimator half of the derived state: which compiled
// program predicts each implementation's area and delay. It is built
// from a scan of only the estimators relation (ensureEstimators) —
// independently of the implementation indexes, so width-free queries
// and sessions that never evaluate a width point leave the estimators
// relation untouched (and, under a lazy open, undecoded). The entries are
// by-value pointer pairs into DB.progs: a catalog of 100k implementations
// sharing three expressions holds three programs, not 200k syntax trees.
// Same copy-on-write discipline as derived.
type estCache struct {
	ests   map[string]estPair // impl name -> its estimator programs
	shared atomic.Bool
}

func (e *estCache) clone() *estCache {
	return &estCache{ests: maps.Clone(e.ests)}
}

// derivedSnap pins and returns the live derived snapshot, building it
// first when necessary. The returned snapshot is safe to read without
// any lock: concurrent mutators clone instead of editing it. The loop
// closes the window between a successful build and the read lock in
// which a concurrent InvalidateCaches could nil the pointer out.
func (db *DB) derivedSnap() (*derived, error) {
	for {
		db.cmu.RLock()
		if d := db.der; d != nil {
			d.shared.Store(true)
			db.cmu.RUnlock()
			return d, nil
		}
		db.cmu.RUnlock()
		if err := db.ensureIndexes(); err != nil {
			return nil, err
		}
	}
}

// estSnap pins and returns the live estimator cache, building it first
// when necessary — same protocol as derivedSnap, over the estimators
// relation alone.
func (db *DB) estSnap() (*estCache, error) {
	for {
		db.cmu.RLock()
		if e := db.est; e != nil {
			e.shared.Store(true)
			db.cmu.RUnlock()
			return e, nil
		}
		db.cmu.RUnlock()
		if err := db.ensureEstimators(); err != nil {
			return nil, err
		}
	}
}

// writableDerived returns a derived snapshot the caller may mutate.
// Must be called with cmu held exclusively; if the live snapshot has
// been pinned by a reader it is cloned first and the clone installed.
func (db *DB) writableDerived() *derived {
	if db.der.shared.Load() {
		db.der = db.der.clone()
	}
	return db.der
}

// writableEsts is writableDerived for the estimator cache.
func (db *DB) writableEsts() *estCache {
	if db.est.shared.Load() {
		db.est = db.est.clone()
	}
	return db.est
}

// estPair holds one implementation's estimator programs; a nil program
// means no estimator is registered for that attribute and the scalar
// estimate stands.
type estPair struct {
	area, delay *estProg
}

// Open bootstraps the ICDB schema on store, creating any missing tables,
// and (re)seeds the components relation from the GENUS catalog plus the
// builtin parameterized implementation library. Opening a store that
// already holds ICDB tables (e.g. one read with relstore.OpenSnapshot) is
// idempotent: implementation rows that already exist — including
// user-tuned versions of builtin names — are left untouched.
//
// A store that already holds every ICDB relation skips seeding entirely,
// so Open reads no rows: under a lazy snapshot open (relstore.OpenLazy)
// every table stays an undecoded stub until a query touches it. Only a
// catalog missing some relation (created by an older build) pays the
// seeding probes, which is also what backfills the new relations.
func Open(store *relstore.Store) (*DB, error) {
	db := &DB{store: store}
	complete := true
	for _, sc := range Schemas() {
		if _, err := store.SchemaOf(sc.Table); err == nil {
			continue
		}
		complete = false
		if err := store.CreateTable(sc); err != nil {
			return nil, fmt.Errorf("icdb: bootstrap: %w", err)
		}
	}
	if complete {
		return db, nil
	}
	for _, ct := range genus.AllComponentTypes() {
		row := relstore.Row{
			"component": string(ct),
			"functions": genus.FunctionSetKey(genus.Functions(ct)),
		}
		if err := store.Upsert(TableComponents, row); err != nil {
			return nil, fmt.Errorf("icdb: seed components: %w", err)
		}
	}
	for _, im := range builtinImpls() {
		// Seed only missing rows: a reopened store may carry user-tuned
		// versions of builtin implementations, which must survive.
		if _, err := db.ImplByName(im.Name); err == nil {
			continue
		}
		if err := db.RegisterImpl(im); err != nil {
			return nil, fmt.Errorf("icdb: seed builtin %q: %w", im.Name, err)
		}
	}
	// Seed in sorted (impl, attr) order, never map order: two fresh
	// stores must hold the same rows in the same order, so that their
	// snapshots are byte-identical.
	ests := builtinEstimators()
	for _, name := range slices.Sorted(maps.Keys(ests)) {
		// Same survival rule per implementation: any existing estimator
		// rows mean the catalog was tuned; leave them alone.
		if have, err := db.Estimators(name); err != nil || len(have) > 0 {
			continue
		}
		for _, attr := range slices.Sorted(maps.Keys(ests[name])) {
			if err := db.RegisterEstimator(name, attr, ests[name][attr]); err != nil {
				return nil, fmt.Errorf("icdb: seed estimator %s(%s): %w", attr, name, err)
			}
		}
	}
	for _, g := range builtinGenerators() {
		if _, err := db.GeneratorByName(g.Name); err == nil {
			continue
		}
		if err := db.RegisterGenerator(g); err != nil {
			return nil, fmt.Errorf("icdb: seed generator %q: %w", g.Name, err)
		}
	}
	return db, nil
}

// Store returns the underlying relational store (for persistence:
// store.SaveSnapshot / relstore.OpenSnapshot round-trips the whole
// database). Writing to the implementations or tool_params relations
// directly through the store bypasses the DB's derived indexes; call
// InvalidateCaches afterwards so queries observe the change.
func (db *DB) Store() *relstore.Store { return db.store }

// InvalidateCaches drops every piece of derived read-path state (the
// decoded-implementation cache, the function and component inverted
// indexes, the cached ranking weights, and the frontier engine's
// design-point scopes). It is rebuilt lazily on the next query. Only
// needed after mutating the store directly; RegisterImpl, SetToolParam
// and RecordExploration keep the caches current themselves.
func (db *DB) InvalidateCaches() {
	db.cmu.Lock()
	db.der = nil
	db.est = nil
	db.wOK = false
	db.wVer++
	db.cmu.Unlock()
	db.pmu.Lock()
	db.expl = nil
	db.pmu.Unlock()
}

// ensureIndexes builds the decoded-implementation cache and the inverted
// indexes from one no-copy scan of the implementations relation, if they
// are not already live. The estimator cache builds separately
// (ensureEstimators): each piece touches only its own relation.
func (db *DB) ensureIndexes() error {
	db.cmu.RLock()
	built := db.der != nil
	db.cmu.RUnlock()
	if built {
		return nil
	}
	db.cmu.Lock()
	defer db.cmu.Unlock()
	if db.der != nil {
		return nil
	}
	d := newDerived()
	err := db.store.Scan(TableImplementations, nil, func(r relstore.Row) bool {
		im := rowImpl(r)
		d.index(&im)
		return true
	})
	if err != nil {
		return err
	}
	db.der = d
	return nil
}

// ensureEstimators builds the estimator cache from one scan of the
// estimators relation, if it is not already live. Each row costs a
// lookup of its expression in the intern table; only a source text not
// seen before is parsed and compiled.
func (db *DB) ensureEstimators() error {
	db.cmu.RLock()
	built := db.est != nil
	db.cmu.RUnlock()
	if built {
		return nil
	}
	db.cmu.Lock()
	defer db.cmu.Unlock()
	if db.est != nil {
		return nil
	}
	// Sized up front (one entry per implementation, a row per attribute):
	// growing a map to catalog size leaves as much garbage as the map.
	rows, err := db.store.Count(TableEstimators, nil)
	if err != nil {
		return err
	}
	ec := &estCache{ests: make(map[string]estPair, rows/len(EstimatorAttrs()))}
	var estErr error
	err = db.store.Scan(TableEstimators, nil, func(r relstore.Row) bool {
		impl, attr := asString(r["impl"]), asString(r["attr"])
		p, perr := db.internLocked(asString(r["expr"]))
		if perr != nil {
			estErr = fmt.Errorf("icdb: estimator %s(%s): %w", attr, impl, perr)
			return false
		}
		ec.ests[impl] = ec.ests[impl].with(attr, p)
		return true
	})
	if err != nil {
		return err
	}
	if estErr != nil {
		return estErr
	}
	db.est = ec
	return nil
}

// with returns p filed under attr. Pairs are values: a pinned snapshot's
// map keeps the pair it had.
func (ep estPair) with(attr string, p *estProg) estPair {
	switch attr {
	case "area":
		ep.area = p
	case "delay":
		ep.delay = p
	}
	return ep
}

// intern returns the program for estimator expression src, parsing and
// compiling it only if no implementation or generator has carried that
// exact text before.
func (db *DB) intern(src string) (*estProg, error) {
	db.cmu.RLock()
	p := db.progs[src]
	db.cmu.RUnlock()
	if p != nil {
		return p, nil
	}
	db.cmu.Lock()
	defer db.cmu.Unlock()
	return db.internLocked(src)
}

// internLocked is intern for callers holding cmu exclusively.
func (db *DB) internLocked(src string) (*estProg, error) {
	if p := db.progs[src]; p != nil {
		return p, nil
	}
	e, err := iif.ParseExpr(src)
	if err != nil {
		return nil, err
	}
	p := &estProg{expr: e, eval: compileExpr(e)}
	if db.progs == nil {
		db.progs = make(map[string]*estProg)
	}
	db.progs[src] = p
	return p, nil
}

// noteEstimator records a freshly registered estimator in the live cache
// (a no-op while the estimator cache is unbuilt — the next
// ensureEstimators picks the row up from the store).
func (db *DB) noteEstimator(impl, attr string, p *estProg) {
	db.cmu.Lock()
	defer db.cmu.Unlock()
	if db.est == nil {
		return
	}
	ests := db.writableEsts().ests
	ests[impl] = ests[impl].with(attr, p)
}

// index files im under its name, functions, and component type. An
// implementation replacing one of the same name takes over its place in
// order; a new name goes to the end.
func (d *derived) index(im *Impl) {
	if old, ok := d.impls[im.Name]; ok {
		d.unindex(old)
		d.order[slices.Index(d.order, old)] = im
	} else {
		d.order = append(d.order, im)
	}
	d.impls[im.Name] = im
	for _, f := range im.Functions {
		post := d.byFn[f]
		if post == nil {
			post = make(map[string]*Impl)
			d.byFn[f] = post
		}
		post[im.Name] = im
	}
	post := d.byCt[im.Component]
	if post == nil {
		post = make(map[string]*Impl)
		d.byCt[im.Component] = post
	}
	post[im.Name] = im
}

// unindex drops im's posting-list entries (its order slot is index's to
// reassign).
func (d *derived) unindex(im *Impl) {
	for _, f := range im.Functions {
		if post := d.byFn[f]; post != nil {
			delete(post, im.Name)
			if len(post) == 0 {
				delete(d.byFn, f)
			}
		}
	}
	if post := d.byCt[im.Component]; post != nil {
		delete(post, im.Name)
		if len(post) == 0 {
			delete(d.byCt, im.Component)
		}
	}
}

// noteImpl records a freshly decoded or registered implementation in the
// live caches (a no-op while they are unbuilt — the next ensureIndexes
// picks the row up from the store).
func (db *DB) noteImpl(im Impl) {
	db.cmu.Lock()
	defer db.cmu.Unlock()
	if db.der == nil {
		return
	}
	db.writableDerived().index(&im)
}

// RegisterImpl validates and upserts an implementation row. The IIF
// source must parse, its NAME must equal the implementation name, its
// PARAMETER list must match Params, and the declared functions must be a
// non-empty subset of the component type's GENUS function set.
func (db *DB) RegisterImpl(im Impl) error {
	if im.Name == "" {
		return fmt.Errorf("icdb: implementation has no name")
	}
	ct, ok := genus.NormalizeComponentType(string(im.Component))
	if !ok {
		return fmt.Errorf("icdb: %s: unknown component type %q", im.Name, im.Component)
	}
	if len(im.Functions) == 0 {
		return fmt.Errorf("icdb: %s: implementation executes no functions", im.Name)
	}
	allowed := make(map[genus.Function]bool)
	for _, f := range genus.Functions(ct) {
		allowed[f] = true
	}
	for _, f := range im.Functions {
		if !allowed[f] {
			return fmt.Errorf("icdb: %s: function %s not executable by component type %s", im.Name, f, ct)
		}
	}
	if im.WidthMin < 1 || im.WidthMax < im.WidthMin {
		return fmt.Errorf("icdb: %s: bad width range [%d,%d]", im.Name, im.WidthMin, im.WidthMax)
	}
	d, err := iif.Parse(im.Source)
	if err != nil {
		return fmt.Errorf("icdb: %s: bad IIF source: %w", im.Name, err)
	}
	if d.Name != im.Name {
		return fmt.Errorf("icdb: implementation %q has IIF NAME %q; they must match", im.Name, d.Name)
	}
	if !sameNameSet(d.Params, im.Params) {
		return fmt.Errorf("icdb: %s: PARAMETER list %v does not match declared params %v", im.Name, d.Params, im.Params)
	}
	im.Component = ct
	row := implRow(im)
	// The store write and the cache update are one step with respect to
	// other registrations, so the cache's order slice matches the
	// relation's insertion order however writers interleave.
	db.rmu.Lock()
	defer db.rmu.Unlock()
	if err := db.store.Upsert(TableImplementations, row); err != nil {
		return err
	}
	// Keep the derived indexes current: the registered implementation
	// replaces any previous posting-list entries under its name. It is
	// cached as decoded from the row just stored (function set in
	// canonical order, caller-independent slices), exactly what a cache
	// rebuilt from the relation would hold.
	db.noteImpl(rowImpl(row))
	return nil
}

func sameNameSet(a, b []string) bool {
	as := append([]string(nil), a...)
	bs := append([]string(nil), b...)
	sort.Strings(as)
	sort.Strings(bs)
	if len(as) != len(bs) {
		return false
	}
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

func implRow(im Impl) relstore.Row {
	return relstore.Row{
		"name":      im.Name,
		"component": string(im.Component),
		"style":     im.Style,
		"functions": genus.FunctionSetKey(im.Functions),
		"width_min": im.WidthMin,
		"width_max": im.WidthMax,
		"stages":    im.Stages,
		"area":      im.Area,
		"delay":     im.Delay,
		"params":    strings.Join(im.Params, ","),
		"source":    im.Source,
	}
}

// Clone returns a caller-owned copy of im with freshly allocated slices.
// Cached implementations are shared and immutable, so every
// materializing method hands out clones; callers of the streaming Scan
// queries use Clone to retain a yielded Impl past its visit.
func (im *Impl) Clone() Impl {
	out := *im
	out.Functions = append([]genus.Function(nil), im.Functions...)
	out.Params = append([]string(nil), im.Params...)
	return out
}

func rowImpl(r relstore.Row) Impl {
	im := Impl{
		Name:      asString(r["name"]),
		Component: genus.ComponentType(asString(r["component"])),
		Style:     asString(r["style"]),
		WidthMin:  asInt(r["width_min"]),
		WidthMax:  asInt(r["width_max"]),
		Stages:    asInt(r["stages"]),
		Area:      asFloat(r["area"]),
		Delay:     asFloat(r["delay"]),
		Source:    asString(r["source"]),
	}
	if fs := asString(r["functions"]); fs != "" {
		for _, f := range strings.Split(fs, ",") {
			im.Functions = append(im.Functions, genus.Function(f))
		}
	}
	if ps := asString(r["params"]); ps != "" {
		im.Params = strings.Split(ps, ",")
	}
	return im
}

func asString(v any) string {
	s, _ := v.(string)
	return s
}

func asInt(v any) int {
	switch x := v.(type) {
	case int:
		return x
	case int64:
		return int(x)
	case float64:
		return int(x)
	}
	return 0
}

func asFloat(v any) float64 {
	switch x := v.(type) {
	case float64:
		return x
	case float32:
		return float64(x)
	case int:
		return float64(x)
	case int64:
		return float64(x)
	}
	return 0
}

// ImplByName fetches one implementation by its exact name. It is a point
// lookup: served from the decoded cache when possible, otherwise one
// keyed Get against the store (never a scan).
func (db *DB) ImplByName(name string) (Impl, error) {
	db.cmu.RLock()
	var p *Impl
	if db.der != nil {
		p = db.der.impls[name]
	}
	db.cmu.RUnlock()
	if p != nil {
		return p.Clone(), nil
	}
	row, err := db.store.Get(TableImplementations, name)
	if err != nil {
		return Impl{}, fmt.Errorf("icdb: implementation %q: %w", name, err)
	}
	im := rowImpl(row)
	db.noteImpl(im)
	// noteImpl cached a struct copy sharing im's slices; hand the caller
	// its own copy so mutating the result cannot corrupt the cache.
	return im.Clone(), nil
}

// Impls returns every registered implementation in insertion order. It
// decodes straight off the store's row cursor: rowImpl copies every
// value out, so no defensive row clone is needed. Callers that only
// read each implementation once should stream with ImplsScan instead,
// which decodes and allocates nothing.
func (db *DB) Impls() ([]Impl, error) {
	var out []Impl
	for r, err := range db.store.Rows(TableImplementations, nil) {
		if err != nil {
			return nil, err
		}
		out = append(out, rowImpl(r))
	}
	return out, nil
}

// ImplsScan streams every registered implementation to visit in
// insertion order — the order Impls returns — straight from the
// decoded-implementation cache: no row is re-decoded and nothing is
// allocated per implementation. visit returning false stops the stream.
// The visitor contract is a streamed Find's: the *Impl is the cache's
// own value (read-only; Clone to retain), and visit may call back into
// the DB (see Find).
func (db *DB) ImplsScan(visit func(*Impl) bool) error {
	d, err := db.derivedSnap()
	if err != nil {
		return err
	}
	return (&Query{}).each(d, visit) // the zero Query walks the cache in insertion order
}

// ComponentFunctions reads the components relation: the function set
// registered for component type ct.
func (db *DB) ComponentFunctions(ct genus.ComponentType) ([]genus.Function, error) {
	row, err := db.store.Get(TableComponents, string(ct))
	if err != nil {
		return nil, fmt.Errorf("icdb: component %q: %w", ct, err)
	}
	var out []genus.Function
	for _, f := range strings.Split(asString(row["functions"]), ",") {
		if f != "" {
			out = append(out, genus.Function(f))
		}
	}
	return out, nil
}

// SetToolParam records a synthesis-tool parameter (the paper's tool
// parameters relation, §3): e.g. ranking weights or per-tool defaults.
func (db *DB) SetToolParam(tool, param string, value float64) error {
	if err := db.store.Upsert(TableToolParams, relstore.Row{
		"tool": tool, "param": param, "value": value,
	}); err != nil {
		return err
	}
	db.cmu.Lock()
	db.wOK = false
	db.wVer++
	db.cmu.Unlock()
	return nil
}

// ToolParam looks up a tool parameter; ok is false when unset.
func (db *DB) ToolParam(tool, param string) (value float64, ok bool) {
	row, err := db.store.Get(TableToolParams, tool, param)
	if err != nil {
		return 0, false
	}
	return asFloat(row["value"]), true
}

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
	"math"
	"slices"
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
// On top of the store, a DB keeps its read state in one catalog, a part
// per relation stamped with that relation's generation: decoded
// implementations with inverted indexes from function and component type,
// so query-by-function intersects posting lists instead of scanning the
// implementations relation; the compiled estimators; the ranking weights;
// the frontier's design-point scopes. A query pins the catalog once and
// checks every part it reads after the pin, so every write is seen,
// whichever path it took, and every answer comes from one state of the
// store (see catalog).
type DB struct {
	store *relstore.Store
	mu    sync.Mutex
	// nextInstID is the next instance ID to allocate; 0 means not yet
	// computed from the store (guarded by mu).
	nextInstID int

	// catMu guards cat, held only to pin, swap or (unshared) update its
	// parts; wmu serializes what moves a stamp (see catalog). rebuilds
	// counts the scan builds per part.
	catMu    sync.RWMutex
	cat      catalog
	wmu      sync.Mutex
	rebuilds [numParts]atomic.Uint64
	// joins counts the estimator joins built (DB.join), joinLookups the
	// by-name estimator lookups they made: the only ones on Find's path.
	joins, joinLookups atomic.Uint64
	// afterPin, when set, runs in every read between its pin and its
	// checks: the seam the one-version tests write through.
	afterPin func()

	// cmu guards progs, which interns estimator expressions by source
	// text: one parsed and compiled program per distinct expression, shared
	// by every implementation (the estimators part) and generator
	// (GeneratorCost) that carries it. A program is a pure function of its
	// source, so the table is never stale and InvalidateCaches leaves it
	// alone; it holds what the estimators and generators relations hold,
	// de-duplicated. Programs are immutable once published; the map is
	// written under cmu.Lock only.
	cmu   sync.RWMutex
	progs map[string]*estProg

	// pmu guards the frontier engine's design-point cache and its
	// counters: decoded, sweep-ordered exploration sets per query scope,
	// stamped with the explorations relation's own generation — the
	// catalog's rule, kept per scope (the contract is spelled out at
	// explCache in pareto.go). pmu is held only for pointer swaps, folds,
	// frontier merges and deltas, never across a store call or a visitor.
	pmu      sync.Mutex
	expl     *explCache
	explInfo ParetoCacheInfo
	explHits atomic.Uint64 // ParetoCacheInfo.Hits, counted by read
}

// derived is one snapshot of the DB's read-path state over the
// implementations relation: the decoded-implementation cache and the two
// inverted indexes, whose posting lists are name-sorted entry slices
// (postList). Cached *Impl values and published lists are shared between
// snapshots and immutable: RegisterImpl's delta files a fresh *Impl into
// fresh copies of the lists it touches, on a clone of the spines once a
// reader has pinned the snapshot (see catalog). A list's estimator join
// is the one thing a reader adds to a published snapshot.
type derived struct {
	impls map[string]*Impl                  // name -> decoded implementation
	byFn  map[genus.Function]*postList      // function -> posting list
	byCt  map[genus.ComponentType]*postList // component type -> posting list
	// order lists the cached implementations in the implementations
	// relation's insertion order (a re-registered name keeps its place,
	// like the row it upserts), so ImplsScan needs neither the store's
	// rows nor a sort.
	order []*Impl
}

func newDerived() *derived {
	return &derived{
		impls: make(map[string]*Impl),
		byFn:  make(map[genus.Function]*postList),
		byCt:  make(map[genus.ComponentType]*postList),
	}
}

// clone copies the snapshot's spines — the name map, the two outer maps
// and the order slice — sharing the posting lists and the *Impl values,
// which are immutable. The clone starts unshared: the writer owns it
// until the next reader pins it.
func (d *derived) clone() *derived {
	return &derived{order: slices.Clone(d.order), impls: maps.Clone(d.impls), byFn: maps.Clone(d.byFn), byCt: maps.Clone(d.byCt)}
}

// estMap is the estimators part: which compiled program predicts each
// implementation's area and delay, by implementation name. It is built
// from a scan of only the estimators relation — independently of the
// implementation indexes, so width-free queries and sessions that never
// evaluate a width point leave the estimators relation untouched (and,
// under a lazy open, undecoded). A width query does not look candidates
// up in it: each posting list it walks is joined to it by position once
// (DB.join), and the join is read per candidate. The entries are
// by-value pointer pairs into DB.progs: a catalog of 100k
// implementations sharing three expressions holds three programs, not
// 200k syntax trees.
type estMap map[string]estPair

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
// database). Writes made directly through it are seen by the next query
// like any other: each cache notices its relation's generation moved on
// and rebuilds.
func (db *DB) Store() *relstore.Store { return db.store }

// InvalidateCaches drops every read-path cache; each is rebuilt by the
// next query that needs it. Correctness never depends on it — a cache
// whose relation changed behind its back rebuilds by itself — so it only
// releases memory or forces a cold start.
func (db *DB) InvalidateCaches() {
	db.catMu.Lock()
	db.cat = catalog{}
	db.catMu.Unlock()
	db.pmu.Lock()
	db.expl = nil
	db.pmu.Unlock()
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
	if p := db.progs[src]; p != nil {
		return p, nil
	}
	e, err := iif.ParseExpr(src)
	if err != nil {
		return nil, err
	}
	p = &estProg{src: src, expr: e, eval: compileExpr(e)}
	if db.progs == nil {
		db.progs = make(map[string]*estProg)
	}
	db.progs[src] = p
	return p, nil
}

// add files im during a rebuild, under its name and at the end of order;
// seal builds the posting lists once the scan is done. The relation's
// key makes every name new.
func (d *derived) add(im *Impl) {
	d.impls[im.Name] = im
	d.order = append(d.order, im)
}

// seal builds the posting lists of the implementations add filed: it
// sorts them by name once and appends each to its lists in that order,
// every list allocated at its final length — no insertion into a sorted
// slice per row, no sort per list.
func (d *derived) seal() {
	sorted := slices.SortedFunc(slices.Values(d.order), func(a, b *Impl) int { return strings.Compare(a.Name, b.Name) })
	nFn, nCt := map[genus.Function]int{}, map[genus.ComponentType]int{}
	for _, im := range sorted {
		for _, f := range im.Functions {
			nFn[f]++
		}
		nCt[im.Component]++
	}
	for _, im := range sorted {
		e := entryOf(im)
		for _, f := range im.Functions {
			appendTo(d.byFn, f, nFn[f], e)
		}
		appendTo(d.byCt, im.Component, nCt[im.Component], e)
	}
}

// put files im, decoded from the row a registration just stored, in place
// of any implementation of its name: im takes over that one's place in
// order (a new name goes to the end), and each posting list either of
// them is on is replaced by a copy, once. d is the writer's (unshared);
// the lists it shares with other snapshots are never written.
func (d *derived) put(im *Impl) {
	if old := d.impls[im.Name]; old != nil {
		d.order[slices.Index(d.order, old)] = im
		for _, f := range old.Functions {
			if !slices.Contains(im.Functions, f) {
				repost(d.byFn, f, im.Name, nil)
			}
		}
		if old.Component != im.Component {
			repost(d.byCt, old.Component, im.Name, nil)
		}
	} else {
		d.order = append(d.order, im)
	}
	d.impls[im.Name] = im
	e := entryOf(im)
	for _, f := range im.Functions {
		repost(d.byFn, f, im.Name, &e)
	}
	repost(d.byCt, im.Component, im.Name, &e)
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
	for i, f := range im.Functions {
		if !slices.Contains(genus.Functions(ct), f) {
			return fmt.Errorf("icdb: %s: function %s not executable by component type %s", im.Name, f, ct)
		}
		if slices.Contains(im.Functions[:i], f) {
			return fmt.Errorf("icdb: %s: function %s is listed twice", im.Name, f)
		}
	}
	if err := checkFinite(im.Name, im.Area, im.Delay); err != nil {
		return err
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
	// The registered implementation replaces any previous posting-list
	// entries under its name, and keeps its place in order. It is cached
	// as decoded from the row just stored (function set in canonical
	// order, caller-independent slices), exactly what a cache rebuilt
	// from the relation would hold. The delta copies the lists it touches
	// and shares the rest.
	return db.upsert(partImpls, row, func(v any, shared bool) any {
		d := v.(*derived)
		if shared {
			d = d.clone()
		}
		im := rowImpl(row)
		d.put(&im)
		return d
	})
}

func sameNameSet(a, b []string) bool {
	return slices.Equal(slices.Sorted(slices.Values(a)), slices.Sorted(slices.Values(b)))
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
	im.Functions = splitFunctions(asString(r["functions"]))
	if ps := asString(r["params"]); ps != "" {
		im.Params = strings.Split(ps, ",")
	}
	return im
}

// splitFunctions decodes a stored function set, listing each function
// once: registration refuses a repeat, but a row stored before it did,
// or by a direct Store() write, may still carry one.
func splitFunctions(fs string) []genus.Function {
	if fs == "" {
		return nil
	}
	var fns []genus.Function
	for _, f := range strings.Split(fs, ",") {
		if fn := genus.Function(f); !slices.Contains(fns, fn) {
			fns = append(fns, fn)
		}
	}
	return fns
}

// checkFinite refuses a NaN or infinite area or delay: such a cost has
// no order, so it can be neither ranked nor put on a frontier.
func checkFinite(what string, area, delay float64) error {
	if math.IsNaN(area) || math.IsInf(area, 0) {
		return fmt.Errorf("icdb: %s: area %v is not a finite number", what, area)
	}
	if math.IsNaN(delay) || math.IsInf(delay, 0) {
		return fmt.Errorf("icdb: %s: delay %v is not a finite number", what, delay)
	}
	return nil
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
// lookup: served from the decoded cache while that is current and holds
// the name, otherwise one keyed Get against the store (never a scan, and
// never a rebuild).
func (db *DB) ImplByName(name string) (Impl, error) {
	var p *Impl
	if gen, err := db.store.TableGeneration(TableImplementations); err == nil {
		db.catMu.RLock()
		if pt := db.cat[partImpls]; pt != nil && pt.gen == gen {
			p = pt.val.(*derived).impls[name]
		}
		db.catMu.RUnlock()
	}
	if p != nil {
		return p.Clone(), nil // cached *Impl values are immutable
	}
	row, err := db.store.Get(TableImplementations, name)
	if err != nil {
		return Impl{}, fmt.Errorf("icdb: implementation %q: %w", name, err)
	}
	return rowImpl(row), nil
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
// The visitor contract is Find's: the *Impl is the cache's own value
// (read-only; Clone to retain), and visit may call back into the DB.
func (db *DB) ImplsScan(visit func(*Impl) bool) error {
	r, err := db.read(needImpls, nil)
	if err != nil {
		return err
	}
	for _, im := range r.impls().order {
		if !visit(im) {
			break
		}
	}
	return nil
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
// It applies no delta: the cached ranking weights fall behind the
// relation's generation and the next query rebuilds them.
func (db *DB) SetToolParam(tool, param string, value float64) error {
	return db.store.Upsert(TableToolParams, relstore.Row{
		"tool": tool, "param": param, "value": value,
	})
}

// rankWeights is the database-default ranking weight pair.
type rankWeights struct{ area, delay float64 }

// with resolves one query's ranking weights: each override when set,
// otherwise the database default.
func (w rankWeights) with(area, delay *float64) (wa, wd float64) {
	wa, wd = w.area, w.delay
	if area != nil {
		wa = *area
	}
	if delay != nil {
		wd = *delay
	}
	return wa, wd
}

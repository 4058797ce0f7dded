package icdb

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"icdb/internal/genus"
	"icdb/internal/iif"
)

// Attrs is the attribute environment a constraint is evaluated against:
// implementation attribute name to numeric value.
type Attrs map[string]float64

// Constraint restricts the implementations a query may return. Build one
// with Where (an IIF attribute expression, the CQL layer of §5) or with
// the typed helpers ForWidth / MaxArea / MaxDelay / AtWidth.
type Constraint struct {
	src  string
	pass func(Attrs) (bool, error)
	// atWidth, when non-zero, marks the constraint as the query's width
	// evaluation point (see AtWidth): the engine evaluates estimator
	// expressions there before filtering and ranking. Negative values
	// record an invalid requested width, rejected when the query runs.
	atWidth int
	// weights, when non-nil, overrides the ranking weights for the query
	// carrying the constraint (see Weights).
	weights *rankW
}

// rankW is one pair of ranking weights: cost = Area*area + Delay*delay.
type rankW struct {
	area, delay float64
}

// String returns the constraint's source form, for diagnostics.
func (c Constraint) String() string { return c.src }

// Accept reports whether attribute environment a satisfies the
// constraint. The zero Constraint accepts everything.
func (c Constraint) Accept(a Attrs) (bool, error) {
	if c.pass == nil {
		return true, nil
	}
	return c.pass(a)
}

// Where compiles an attribute expression such as
// "width_min <= 8 && area <= 10" into a constraint. The expression is
// parsed with iif.ParseExpr and evaluated with C semantics over the
// implementation's Attrs; a non-zero result accepts the implementation.
func Where(expr string) (Constraint, error) {
	e, err := iif.ParseExpr(expr)
	if err != nil {
		return Constraint{}, fmt.Errorf("icdb: constraint %q: %w", expr, err)
	}
	return Constraint{
		src: expr,
		pass: func(a Attrs) (bool, error) {
			v, err := evalAttr(e, a)
			if err != nil {
				return false, fmt.Errorf("icdb: constraint %q: %w", expr, err)
			}
			return v != 0, nil
		},
	}, nil
}

// MustWhere is Where for static expressions; it panics on a parse error.
func MustWhere(expr string) Constraint {
	c, err := Where(expr)
	if err != nil {
		panic(err)
	}
	return c
}

// ForWidth keeps implementations whose width range covers n bits.
func ForWidth(n int) Constraint {
	return Constraint{
		src: fmt.Sprintf("width_min <= %d && width_max >= %d", n, n),
		pass: func(a Attrs) (bool, error) {
			return a["width_min"] <= float64(n) && a["width_max"] >= float64(n), nil
		},
	}
}

// AtWidth sets the query's attribute-evaluation point: candidates must
// cover width n (like ForWidth), and every area/delay value the query
// filters, ranks, or reports is the implementation's estimator
// expression evaluated at n — implementations without a registered
// estimator keep their scalar estimates, the degenerate
// constant-expression case. The attribute environment also gains a
// "width" attribute holding n, so Where expressions may reference it.
func AtWidth(n int) Constraint {
	c := ForWidth(n)
	c.src = fmt.Sprintf("at width %d", n)
	c.atWidth = n
	if n < 1 {
		c.atWidth = -1
	}
	return c
}

// evalWidth extracts the width evaluation point from a query's
// constraints: 0 when no AtWidth constraint is present. Conflicting or
// invalid points are rejected before any row is visited.
func evalWidth(cs []Constraint) (int, error) {
	w := 0
	for _, c := range cs {
		switch {
		case c.atWidth == 0:
		case c.atWidth < 0:
			return 0, fmt.Errorf("icdb: %s: width must be at least 1", c.src)
		case w != 0 && w != c.atWidth:
			return 0, fmt.Errorf("icdb: conflicting width evaluation points %d and %d", w, c.atWidth)
		default:
			w = c.atWidth
		}
	}
	return w, nil
}

// Weights overrides the ranking weights for the query carrying the
// constraint: candidates are scored Area*area + Delay*delay instead of
// using the database-wide tool parameters (see RankWeights). It filters
// nothing. When a query carries several Weights constraints the last
// one wins.
func Weights(area, delay float64) Constraint {
	return Constraint{
		src:     fmt.Sprintf("weights area=%g delay=%g", area, delay),
		weights: &rankW{area: area, delay: delay},
	}
}

// queryWeights resolves the ranking weights of one query: the last
// Weights constraint if any, otherwise the database defaults.
func (db *DB) queryWeights(cs []Constraint) (wa, wd float64) {
	for i := len(cs) - 1; i >= 0; i-- {
		if w := cs[i].weights; w != nil {
			return w.area, w.delay
		}
	}
	return db.rankWeights()
}

// MaxArea keeps implementations whose per-bit area estimate is at most a.
func MaxArea(area float64) Constraint {
	return Constraint{
		src:  fmt.Sprintf("area <= %g", area),
		pass: func(a Attrs) (bool, error) { return a["area"] <= area, nil },
	}
}

// MaxDelay keeps implementations whose delay estimate is at most d.
func MaxDelay(d float64) Constraint {
	return Constraint{
		src:  fmt.Sprintf("delay <= %g", d),
		pass: func(a Attrs) (bool, error) { return a["delay"] <= d, nil },
	}
}

// CmpOp is a comparison operator accepted by AttrCmp.
type CmpOp string

// The comparison operators of AttrCmp constraints. CmpEQ and CmpNE
// compare exactly (no epsilon): they are meant for integer-valued
// attributes such as stages and the width bounds.
const (
	CmpLE CmpOp = "<="
	CmpLT CmpOp = "<"
	CmpGE CmpOp = ">="
	CmpGT CmpOp = ">"
	CmpEQ CmpOp = "="
	CmpNE CmpOp = "!="
)

// ConstraintAttrs returns the attribute vocabulary implementations expose
// to constraints and Order keys, in deterministic order: width_min and
// width_max (the bit-width range, in bits), stages (pipeline stages), and
// the per-bit area and delay estimates.
func ConstraintAttrs() []string {
	return []string{"area", "delay", "stages", "width_min", "width_max"}
}

// AttrCmp builds the single-comparison constraint "attr op v" directly,
// without going through the IIF expression parser — unlike Where it
// accepts non-integer values ("area <= 10.5") and validates the
// attribute name eagerly against ConstraintAttrs. It is the primitive
// the CQL front-end compiles "with" clauses onto.
func AttrCmp(attr string, op CmpOp, v float64) (Constraint, error) {
	if !slices.Contains(ConstraintAttrs(), attr) {
		return Constraint{}, fmt.Errorf("icdb: unknown constraint attribute %q (have %s)",
			attr, strings.Join(ConstraintAttrs(), ", "))
	}
	var pass func(Attrs) (bool, error)
	switch op {
	case CmpLE:
		pass = func(a Attrs) (bool, error) { return a[attr] <= v, nil }
	case CmpLT:
		pass = func(a Attrs) (bool, error) { return a[attr] < v, nil }
	case CmpGE:
		pass = func(a Attrs) (bool, error) { return a[attr] >= v, nil }
	case CmpGT:
		pass = func(a Attrs) (bool, error) { return a[attr] > v, nil }
	case CmpEQ:
		pass = func(a Attrs) (bool, error) { return a[attr] == v, nil }
	case CmpNE:
		pass = func(a Attrs) (bool, error) { return a[attr] != v, nil }
	default:
		return Constraint{}, fmt.Errorf("icdb: unknown comparison operator %q", op)
	}
	return Constraint{src: fmt.Sprintf("%s %s %g", attr, op, v), pass: pass}, nil
}

// attrEnv adapts an Attrs map to iif.EvalEnv[float64], binding the
// generic evaluation core (iif.EvalExpr) to constraint semantics: names
// resolve to attribute values, nothing mutates, and hardware operators
// are "not valid in a constraint". Maps are pointer-shaped, so the
// attrEnv(a) conversion into the interface allocates nothing — which
// keeps evalAttr on the O(1)-allocations-per-row streaming path
// (attrEval.evalAccept) it sits under.
type attrEnv Attrs

func (a attrEnv) Lookup(r *iif.Ref) (float64, error) {
	if len(r.Index) != 0 {
		return 0, fmt.Errorf("%s: attribute %q cannot be indexed", r.Pos, r.Name)
	}
	v, ok := a[r.Name]
	if !ok {
		return 0, fmt.Errorf("%s: unknown attribute %q (have %v)", r.Pos, r.Name, attrNames(Attrs(a)))
	}
	return v, nil
}

func (a attrEnv) Mutate(pos iif.Pos, op iif.UnaryOp, _ iif.Expr) (float64, error) {
	return 0, a.BadUnary(pos, op)
}

func (a attrEnv) BadUnary(pos iif.Pos, op iif.UnaryOp) error {
	return fmt.Errorf("%s: operator %s not valid in a constraint", pos, op)
}

func (a attrEnv) BadBinary(pos iif.Pos, op iif.BinaryOp) error {
	return fmt.Errorf("%s: operator %s not valid in a constraint", pos, op)
}

func (a attrEnv) BadExpr(e iif.Expr) error {
	return fmt.Errorf("expression form %T not valid in a constraint", e)
}

func (a attrEnv) ShortCircuit() bool { return true }

// evalAttr evaluates an attribute expression with C semantics over
// float64: '+' adds, '*' multiplies, comparisons and logical operators
// yield 0/1. Division, % (math.Mod), and ** (math.Pow) follow the float
// domain of iif.EvalExpr — contrast the expander's int evaluation.
func evalAttr(e iif.Expr, a Attrs) (float64, error) {
	return iif.EvalExpr[float64](e, attrEnv(a))
}

func attrNames(a Attrs) []string {
	names := make([]string, 0, len(a))
	for n := range a {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Candidate is one ranked query answer. The implementation's component
// type is available as Impl.Component.
type Candidate struct {
	// Impl is a caller-owned copy of the matching implementation (see
	// Impl.Clone), except in the streaming Scan queries, which share the
	// cache's backing and document the read-only contract themselves.
	Impl Impl
	// Area and Delay are the cost estimates the query evaluated for this
	// candidate: under an AtWidth evaluation point they are the estimator
	// expressions evaluated at that width, otherwise the implementation's
	// scalar per-bit estimates (Impl.Area / Impl.Delay).
	Area  float64
	Delay float64
	// Cost is the ranking score: Area*area_weight + Delay*delay_weight,
	// with weights taken from tool parameters (tool "icdb", defaulting to
	// 1). Lower is better. Cost carries the weighted score even when a
	// query is Ordered by a different attribute.
	Cost float64
}

// OrderKeyCost is the Order.Attr value (also the zero value's meaning)
// that ranks by the weighted cost score rather than a raw attribute.
const OrderKeyCost = "cost"

// Order selects the sort key of a ranked (non-Scan) query. The zero
// Order is the engine's default ranking: weighted cost, cheapest first.
// Attr may be OrderKeyCost or any attribute in ConstraintAttrs; Desc
// reverses the direction. Ties are always broken by implementation name,
// ascending, regardless of direction — so an order is total and a
// bounded (TopK) query returns the same candidates as an unbounded one
// truncated.
type Order struct {
	Attr string
	Desc bool
}

// OrderKeys returns every valid Order.Attr value in deterministic order.
func OrderKeys() []string {
	return append([]string{OrderKeyCost}, ConstraintAttrs()...)
}

// validate rejects unknown sort keys eagerly, before any row is visited.
func (o Order) validate() error {
	if o.Attr == "" || o.Attr == OrderKeyCost || slices.Contains(ConstraintAttrs(), o.Attr) {
		return nil
	}
	return fmt.Errorf("icdb: unknown order key %q (have %s)", o.Attr, strings.Join(OrderKeys(), ", "))
}

// rank computes im's sort key under o: the value candidates are compared
// by, negated for descending orders so ranking logic is always
// ascending. area and delay are the query-evaluated estimates (see
// Candidate.Area), so ordering by them is width-aware under AtWidth.
func (o Order) rank(im *Impl, area, delay, cost float64) float64 {
	v := cost
	switch o.Attr {
	case "", OrderKeyCost:
	case "area":
		v = area
	case "delay":
		v = delay
	case "stages":
		v = float64(im.Stages)
	case "width_min":
		v = float64(im.WidthMin)
	case "width_max":
		v = float64(im.WidthMax)
	}
	if o.Desc {
		return -v
	}
	return v
}

// RankWeights returns the database-default ranking weights: the tool
// parameters area_weight and delay_weight of tool "icdb", each
// defaulting to 1 when unset. Queries score candidates
// Area*area + Delay*delay with these weights unless a Weights
// constraint overrides them.
func (db *DB) RankWeights() (area, delay float64) { return db.rankWeights() }

// rankWeights reads the ranking weights from the tool-parameters
// relation. They are cached on the DB and refreshed after SetToolParam,
// so a query pays for at most one tool-parameter read, not one per
// candidate or per call.
func (db *DB) rankWeights() (wa, wd float64) {
	db.cmu.RLock()
	if db.wOK {
		wa, wd = db.wa, db.wd
		db.cmu.RUnlock()
		return wa, wd
	}
	db.cmu.RUnlock()
	wa, wd = 1, 1
	if v, ok := db.ToolParam("icdb", "area_weight"); ok {
		wa = v
	}
	if v, ok := db.ToolParam("icdb", "delay_weight"); ok {
		wd = v
	}
	db.cmu.Lock()
	db.wa, db.wd, db.wOK = wa, wd, true
	db.cmu.Unlock()
	return wa, wd
}

// QueryByFunction answers the paper's central query: which component
// implementations can execute function fn, subject to attribute
// constraints? Results are ranked by cost, cheapest first.
func (db *DB) QueryByFunction(fn genus.Function, cs ...Constraint) ([]Candidate, error) {
	return db.QueryByFunctions([]genus.Function{fn}, cs...)
}

// QueryByFunctions returns implementations that execute every function in
// fns (the merged-component query of §4.1: COUNTER+STORAGE finds
// counters but not pure incrementers), ranked by cost. Candidates come
// from intersecting the function inverted index's posting lists, not
// from scanning the implementations relation.
func (db *DB) QueryByFunctions(fns []genus.Function, cs ...Constraint) ([]Candidate, error) {
	return db.QueryByFunctionsTopK(fns, 0, cs...)
}

// QueryByFunctionTopK is QueryByFunction bounded to the k cheapest
// candidates (k <= 0 means unbounded). Bounded queries rank with a
// fixed-size heap instead of sorting every match.
func (db *DB) QueryByFunctionTopK(fn genus.Function, k int, cs ...Constraint) ([]Candidate, error) {
	return db.QueryByFunctionsTopK([]genus.Function{fn}, k, cs...)
}

// QueryByFunctionsTopK is QueryByFunctions bounded to the k cheapest
// candidates (k <= 0 means unbounded).
func (db *DB) QueryByFunctionsTopK(fns []genus.Function, k int, cs ...Constraint) ([]Candidate, error) {
	return db.QueryByFunctionsOrdered(fns, Order{}, k, cs...)
}

// QueryByFunctionsOrdered is QueryByFunctionsTopK under an explicit sort
// key: candidates executing every function in fns, ranked by order,
// bounded to the best k (k <= 0 means unbounded). It is the engine entry
// point for CQL "find … order by …" commands.
func (db *DB) QueryByFunctionsOrdered(fns []genus.Function, order Order, k int, cs ...Constraint) ([]Candidate, error) {
	return db.rankSeq(func(d *derived, visit func(*Impl) bool) error {
		return forEachByFunctions(d, fns, visit)
	}, cs, k, order)
}

// QueryByFunctionsOfTypeOrdered is QueryByFunctionsOrdered restricted
// to one component type: candidates must execute every function in fns
// and be implementations of ct. The type filter applies in-stream,
// before the TopK heap, so a bounded query clones O(k) implementations
// like every other ranked path. It serves CQL find commands combining
// "of type" with "executing".
func (db *DB) QueryByFunctionsOfTypeOrdered(fns []genus.Function, ct genus.ComponentType, order Order, k int, cs ...Constraint) ([]Candidate, error) {
	nct, ok := genus.NormalizeComponentType(string(ct))
	if !ok {
		return nil, fmt.Errorf("icdb: unknown component type %q", ct)
	}
	return db.rankSeq(func(d *derived, visit func(*Impl) bool) error {
		return forEachByFunctions(d, fns, func(im *Impl) bool {
			if im.Component != nct {
				return true
			}
			return visit(im)
		})
	}, cs, k, order)
}

// QueryByComponent returns the ranked implementations of one component
// type, served from the component inverted index.
func (db *DB) QueryByComponent(ct genus.ComponentType, cs ...Constraint) ([]Candidate, error) {
	return db.QueryByComponentTopK(ct, 0, cs...)
}

// QueryByComponentTopK is QueryByComponent bounded to the k cheapest
// candidates (k <= 0 means unbounded).
func (db *DB) QueryByComponentTopK(ct genus.ComponentType, k int, cs ...Constraint) ([]Candidate, error) {
	return db.QueryByComponentOrdered(ct, Order{}, k, cs...)
}

// QueryByComponentOrdered is QueryByComponentTopK under an explicit sort
// key (see Order).
func (db *DB) QueryByComponentOrdered(ct genus.ComponentType, order Order, k int, cs ...Constraint) ([]Candidate, error) {
	return db.rankSeq(func(d *derived, visit func(*Impl) bool) error {
		return forEachByComponent(d, ct, visit)
	}, cs, k, order)
}

// QueryOrdered ranks the whole catalog: every registered implementation
// passing cs, sorted by order, bounded to the best k (k <= 0 means
// unbounded). It serves CQL "find component" commands that select by
// attribute alone, with no function or component-type filter.
func (db *DB) QueryOrdered(order Order, k int, cs ...Constraint) ([]Candidate, error) {
	return db.rankSeq(forEachImpl, cs, k, order)
}

// ---- streaming core ----
//
// Every query path is built on an implSeq: a function streaming cached
// *Impl values from one pinned derived snapshot to a visitor. The
// snapshot is copy-on-write (see derivedSnap), so the stream holds no
// lock: visitors may run arbitrarily long and may call back into the
// DB — including registering implementations, which land in a fresh
// snapshot without disturbing the one mid-stream. Cached *Impl values
// are never mutated in place (re-registration swaps pointers), so
// consumers may retain one past the stream — but must copy (Clone)
// anything they hand to callers.

// implSeq streams implementations out of snapshot d to visit, stopping
// early when visit returns false.
type implSeq func(d *derived, visit func(*Impl) bool) error

// forEachByFunctions intersects the function inverted index's posting
// lists smallest-first: it iterates the rarest function's postings and
// yields implementations present in all others.
func forEachByFunctions(d *derived, fns []genus.Function, visit func(*Impl) bool) error {
	if len(fns) == 0 {
		return fmt.Errorf("icdb: query with no functions")
	}
	want := make([]genus.Function, 0, len(fns))
	for _, f := range fns {
		nf, err := genus.NormalizeFunction(string(f))
		if err != nil {
			return err
		}
		want = append(want, nf)
	}
	posts := make([]map[string]*Impl, len(want))
	smallest := 0
	for i, f := range want {
		posts[i] = d.byFn[f]
		if len(posts[i]) < len(posts[smallest]) {
			smallest = i
		}
	}
outer:
	for name, im := range posts[smallest] {
		for i, post := range posts {
			if i == smallest {
				continue
			}
			if _, ok := post[name]; !ok {
				continue outer
			}
		}
		if !visit(im) {
			return nil
		}
	}
	return nil
}

// forEachByComponent streams one component type's posting map.
func forEachByComponent(d *derived, ct genus.ComponentType, visit func(*Impl) bool) error {
	nct, ok := genus.NormalizeComponentType(string(ct))
	if !ok {
		return fmt.Errorf("icdb: unknown component type %q", ct)
	}
	for _, im := range d.byCt[nct] {
		if !visit(im) {
			return nil
		}
	}
	return nil
}

// forEachImpl streams the whole decoded-implementation cache in
// insertion order.
func forEachImpl(d *derived, visit func(*Impl) bool) error {
	for _, im := range d.order {
		if !visit(im) {
			return nil
		}
	}
	return nil
}

// attrEval is the attribute-evaluation context of one streamed query: a
// zero width is the scalar engine (attributes read straight off the
// implementation), a positive width evaluates estimator expressions
// there. It reads the compiled estimators of the same pinned derived
// snapshot the query streams from, so one query sees one consistent
// (implementation, estimator) pairing end to end.
type attrEval struct {
	ests  map[string]*estPair
	width int
}

// fill (re)fills a with im's attributes and returns the evaluated area
// and delay estimates. At a width point, a gains "width" and its
// area/delay entries are replaced by the estimator-evaluated values, so
// constraints filter on exactly what ranking scores. Estimator
// expressions themselves see the scalar attributes (area and delay are
// the per-bit estimates while both expressions evaluate).
func (ev attrEval) fill(im *Impl, a Attrs) (area, delay float64, err error) {
	im.fillAttrs(a)
	area, delay = im.Area, im.Delay
	if ev.width == 0 {
		return area, delay, nil
	}
	a["width"] = float64(ev.width)
	if est := ev.ests[im.Name]; est != nil {
		if est.area != nil {
			if area, err = evalAttr(est.area, a); err != nil {
				return 0, 0, fmt.Errorf("icdb: estimator area(%s): %w", im.Name, err)
			}
		}
		if est.delay != nil {
			if delay, err = evalAttr(est.delay, a); err != nil {
				return 0, 0, fmt.Errorf("icdb: estimator delay(%s): %w", im.Name, err)
			}
		}
	}
	a["area"], a["delay"] = area, delay
	return area, delay, nil
}

// evalAccept evaluates im at ev's width point and runs the constraints.
// The attribute map pointed to by attrs is allocated once and refilled
// per candidate: constraints are only constructible inside this package
// (Where, AttrCmp, ForWidth, MaxArea, MaxDelay, AtWidth) and none
// retains the map — an invariant every new constructor must keep — so
// reuse is sound and keeps constrained streaming at O(1) allocations per
// row.
func (ev attrEval) evalAccept(cs []Constraint, im *Impl, attrs *Attrs) (area, delay float64, ok bool, err error) {
	if len(cs) == 0 && ev.width == 0 {
		return im.Area, im.Delay, true, nil
	}
	if *attrs == nil {
		*attrs = make(Attrs, 8)
	}
	area, delay, err = ev.fill(im, *attrs)
	if err != nil {
		return 0, 0, false, err
	}
	for _, c := range cs {
		pass, err := c.Accept(*attrs)
		if err != nil || !pass {
			return 0, 0, false, err
		}
	}
	return area, delay, true, nil
}

// rankSeq materializes the ranked answer of one streamed query:
// survivors of the constraints, scored, and returned best-first under
// order (ties broken by name). With k > 0 it keeps a worst-on-top heap
// of k entries fed directly from the stream, so an unbounded result set
// is never materialized or fully sorted. Cloning the retained
// implementations is deferred until after the stream: cached *Impl
// values are immutable and stay valid past the index lock.
func (db *DB) rankSeq(seq implSeq, cs []Constraint, k int, order Order) ([]Candidate, error) {
	if err := order.validate(); err != nil {
		return nil, err
	}
	width, err := evalWidth(cs)
	if err != nil {
		return nil, err
	}
	wa, wd := db.queryWeights(cs)
	d, err := db.derivedSnap()
	if err != nil {
		return nil, err
	}
	ev := attrEval{width: width}
	if width != 0 {
		// Estimators only evaluate at a width point; a width-free query
		// never builds (or, lazily, decodes) the estimators relation.
		es, err := db.estSnap()
		if err != nil {
			return nil, err
		}
		ev.ests = es.ests
	}
	var kept []heapItem
	var attrs Attrs
	var cerr error
	h := candHeap{limit: k}
	err = seq(d, func(im *Impl) bool {
		area, delay, ok, err := ev.evalAccept(cs, im, &attrs)
		if err != nil {
			cerr = err
			return false
		}
		if !ok {
			return true
		}
		cost := area*wa + delay*wd
		it := heapItem{im: im, area: area, delay: delay, cost: cost, rank: order.rank(im, area, delay, cost)}
		if k > 0 {
			h.offer(it)
		} else {
			kept = append(kept, it)
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if cerr != nil {
		return nil, cerr
	}
	if k > 0 {
		kept = h.items
	}
	// kept[i] sorts before kept[j] exactly when j ranks strictly after i.
	sort.SliceStable(kept, func(i, j int) bool { return worse(kept[j], kept[i]) })
	out := make([]Candidate, len(kept))
	for i, it := range kept {
		out[i] = Candidate{Impl: it.im.Clone(), Area: it.area, Delay: it.delay, Cost: it.cost}
	}
	return out, nil
}

// scanSeq drives one streamed query end to end: constraint filtering,
// costing, and delivery to the caller's visitor, allocating O(1) total
// beyond what the visitor itself does.
func (db *DB) scanSeq(seq implSeq, cs []Constraint, visit func(Candidate) bool) error {
	width, err := evalWidth(cs)
	if err != nil {
		return err
	}
	wa, wd := db.queryWeights(cs)
	d, err := db.derivedSnap()
	if err != nil {
		return err
	}
	ev := attrEval{width: width}
	if width != 0 {
		es, err := db.estSnap()
		if err != nil {
			return err
		}
		ev.ests = es.ests
	}
	var attrs Attrs
	var cerr error
	err = seq(d, func(im *Impl) bool {
		area, delay, ok, err := ev.evalAccept(cs, im, &attrs)
		if err != nil {
			cerr = err
			return false
		}
		if !ok {
			return true
		}
		return visit(Candidate{Impl: *im, Area: area, Delay: delay, Cost: area*wa + delay*wd})
	})
	if err != nil {
		return err
	}
	return cerr
}

// QueryByFunctionScan is the streaming form of QueryByFunction: it
// yields each candidate executing fn (and passing cs) to visit as it is
// found, without materializing, ranking, or copying the result set.
// Candidates arrive in unspecified order; visit returning false stops
// the scan.
//
// The yielded Candidate's Impl shares the cache's backing slices: treat
// it as read-only and call Impl.Clone before retaining it past the
// visit. The stream runs over a pinned copy-on-write snapshot and holds
// no lock, so visit MAY take arbitrarily long and MAY call back into
// the DB — re-entrant queries and registrations proceed normally; the
// stream keeps yielding the snapshot it pinned and concurrent writers
// are never blocked by a slow visitor.
func (db *DB) QueryByFunctionScan(fn genus.Function, visit func(Candidate) bool, cs ...Constraint) error {
	return db.QueryByFunctionsScan([]genus.Function{fn}, visit, cs...)
}

// QueryByFunctionsScan is QueryByFunctionScan over a function set: it
// streams the implementations executing every function in fns. See
// QueryByFunctionScan for the visitor contract.
func (db *DB) QueryByFunctionsScan(fns []genus.Function, visit func(Candidate) bool, cs ...Constraint) error {
	return db.scanSeq(func(d *derived, v func(*Impl) bool) error {
		return forEachByFunctions(d, fns, v)
	}, cs, visit)
}

// QueryByComponentScan streams the implementations of one component type.
// See QueryByFunctionScan for the visitor contract.
func (db *DB) QueryByComponentScan(ct genus.ComponentType, visit func(Candidate) bool, cs ...Constraint) error {
	return db.scanSeq(func(d *derived, v func(*Impl) bool) error {
		return forEachByComponent(d, ct, v)
	}, cs, visit)
}

// QueryScan streams every registered implementation passing cs — the
// whole-catalog walk for tools that want their own filtering or
// aggregation without paying for a materialized copy. See
// QueryByFunctionScan for the visitor contract.
func (db *DB) QueryScan(visit func(Candidate) bool, cs ...Constraint) error {
	return db.scanSeq(forEachImpl, cs, visit)
}

// candHeap is a bounded worst-on-top heap over (rank, name): the root is
// the worst candidate retained, so a better offer evicts it in O(log k).
type candHeap struct {
	limit int
	items []heapItem
}

// heapItem is one retained candidate mid-ranking: rank is the Order sort
// key (already negated for descending orders); area, delay, and cost are
// the evaluated estimates reported in the final Candidate.
type heapItem struct {
	im    *Impl
	area  float64
	delay float64
	cost  float64
	rank  float64
}

// worse reports whether a ranks strictly after b (higher rank, name as
// tie-break — the exact inverse of the final result order).
func worse(a, b heapItem) bool {
	if a.rank != b.rank {
		return a.rank > b.rank
	}
	return a.im.Name > b.im.Name
}

func (h *candHeap) offer(it heapItem) {
	if len(h.items) < h.limit {
		h.items = append(h.items, it)
		h.up(len(h.items) - 1)
		return
	}
	if !worse(h.items[0], it) {
		return
	}
	h.items[0] = it
	h.down(0)
}

func (h *candHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !worse(h.items[i], h.items[parent]) {
			return
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *candHeap) down(i int) {
	for {
		worst := i
		for _, c := range []int{2*i + 1, 2*i + 2} {
			if c < len(h.items) && worse(h.items[c], h.items[worst]) {
				worst = c
			}
		}
		if worst == i {
			return
		}
		h.items[i], h.items[worst] = h.items[worst], h.items[i]
		i = worst
	}
}

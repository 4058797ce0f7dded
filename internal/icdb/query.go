package icdb

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"icdb/internal/genus"
	"icdb/internal/iif"
)

// Attrs is an attribute environment in map form: implementation
// attribute name to numeric value. It is the API-edge representation
// (Impl.Attrs, Constraint.Accept); the engine itself evaluates over a
// fixed slot vector (see slots) and converts a map on the way in. The
// vocabulary is ConstraintAttrs plus "width"; other keys are ignored.
type Attrs map[string]float64

// Constraint restricts the implementations a query may return. Build one
// with Where (an IIF attribute expression, the CQL layer of §5) or with
// the typed helpers ForWidth / AttrCmp. Either way it is compiled at
// construction: the typed helpers to slot comparisons, Where to a closure
// tree over the slot vector (compileExpr).
type Constraint struct {
	src string
	// cmps must all hold; where, when non-nil, must evaluate non-zero.
	cmps  []slotCmp
	where slotFn
}

// String returns the constraint's source form, for diagnostics.
func (c Constraint) String() string { return c.src }

// Accept reports whether attribute environment a satisfies the
// constraint. The zero Constraint accepts everything. It runs the same
// compiled form the query engine does, over a's slot-vector equivalent.
func (c Constraint) Accept(a Attrs) (bool, error) {
	s := slotsOf(a)
	return c.accept(&s)
}

// accept runs the constraint over one candidate's slot vector.
func (c *Constraint) accept(s *slots) (bool, error) {
	for _, k := range c.cmps {
		if !k.holds(s) {
			return false, nil
		}
	}
	if c.where == nil {
		return true, nil
	}
	v, err := c.where(s)
	if err != nil {
		return false, fmt.Errorf("icdb: constraint %q: %w", c.src, err)
	}
	return v != 0, nil
}

// Where compiles an attribute expression such as
// "width_min <= 8 && area <= 10" into a constraint. The expression is
// parsed with iif.ParseExpr and evaluated with C semantics over the
// candidate's attributes; a non-zero result accepts the implementation.
// Names are resolved here, once; an attribute the candidate does not
// carry is still a per-candidate evaluation error, raised only when a
// candidate actually evaluates that sub-expression.
func Where(expr string) (Constraint, error) {
	e, err := iif.ParseExpr(expr)
	if err != nil {
		return Constraint{}, fmt.Errorf("icdb: constraint %q: %w", expr, err)
	}
	return Constraint{src: expr, where: compileExpr(e)}, nil
}

// ForWidth keeps implementations whose width range covers n bits.
func ForWidth(n int) Constraint {
	return Constraint{
		src: fmt.Sprintf("width_min <= %d && width_max >= %d", n, n),
		cmps: []slotCmp{
			{slot: slotWidthMin, op: cmpLE, v: float64(n)},
			{slot: slotWidthMax, op: cmpGE, v: float64(n)},
		},
	}
}

// checkWidth rejects an invalid width evaluation point (zero means none)
// before any row is visited.
func checkWidth(w int) error {
	if w < 0 {
		return fmt.Errorf("icdb: at width %d: width must be at least 1", w)
	}
	return nil
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

// code maps the public operator spelling to its compiled code.
func (op CmpOp) code() (cmpCode, bool) {
	switch op {
	case CmpLE:
		return cmpLE, true
	case CmpLT:
		return cmpLT, true
	case CmpGE:
		return cmpGE, true
	case CmpGT:
		return cmpGT, true
	case CmpEQ:
		return cmpEQ, true
	case CmpNE:
		return cmpNE, true
	}
	return 0, false
}

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
	code, ok := op.code()
	if !ok {
		return Constraint{}, fmt.Errorf("icdb: unknown comparison operator %q", op)
	}
	return Constraint{
		src:  fmt.Sprintf("%s %s %g", attr, op, v),
		cmps: []slotCmp{{slot: uint8(slotOf(attr)), op: code, v: v}},
	}, nil
}

// attrEnv adapts an Attrs map to iif.EvalEnv[float64], binding the
// generic evaluation core (iif.EvalExpr) to constraint semantics: names
// resolve to attribute values, nothing mutates, and hardware operators
// are "not valid in a constraint". It is the interpreter the compiled
// form (compileExpr) is derived from and differentially tested against;
// nothing on a query path evaluates through it (see evalAttr).
type attrEnv Attrs

func (a attrEnv) Lookup(r *iif.Ref) (float64, error) {
	if len(r.Index) != 0 {
		return 0, errIndexedAttr(r)
	}
	v, ok := a[r.Name]
	if !ok {
		return 0, errUnknownAttr(r, attrNames(Attrs(a)))
	}
	return v, nil
}

func (a attrEnv) Mutate(pos iif.Pos, op iif.UnaryOp, _ iif.Expr) (float64, error) {
	return 0, errBadOp(pos, op)
}

func (a attrEnv) BadUnary(pos iif.Pos, op iif.UnaryOp) error { return errBadOp(pos, op) }

func (a attrEnv) BadBinary(pos iif.Pos, op iif.BinaryOp) error { return errBadOp(pos, op) }

func (a attrEnv) BadExpr(e iif.Expr) error { return errBadExpr(e) }

func (a attrEnv) ShortCircuit() bool { return true }

// evalAttr interprets an attribute expression with C semantics over
// float64: '+' adds, '*' multiplies, comparisons and logical operators
// yield 0/1. Division, % (math.Mod), and ** (math.Pow) follow the float
// domain of iif.EvalExpr — contrast the expander's int evaluation. Its
// one engine caller is GeneratorCost, whose environment carries the
// generator's own parameter names; everything evaluated per candidate
// runs the compiled form instead.
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

// Query is the engine's one implementation query, the paper's central
// operation: which implementations execute these functions, of this
// type, under these constraints, at this width, cheapest first. Every
// field is optional; the zero Query streams the whole catalog. Run one
// with DB.Find.
type Query struct {
	// Functions keeps the implementations executing every listed function
	// (§4.1's merged-component query: COUNTER+STORAGE finds counters but
	// not pure incrementers), served by intersecting posting lists.
	Functions []genus.Function
	// Type, when set, keeps the implementations of one component type,
	// served from the component inverted index (intersected with the
	// function lists when Functions is set too).
	Type genus.ComponentType
	// Constraints must all accept a candidate.
	Constraints []Constraint
	// Width, when non-zero, is the query's attribute-evaluation point:
	// candidates must cover it (like ForWidth), every area/delay the query
	// filters, ranks, or reports is the estimator expression evaluated
	// there (the scalar where none is registered), and Where expressions
	// see a "width" attribute holding it. A negative Width is an error.
	Width int
	// AreaWeight and DelayWeight, when non-nil, override the ranking
	// weights for this query: candidates are scored
	// AreaWeight*area + DelayWeight*delay. Each nil weight falls back to
	// the database default on its own (see RankWeights).
	AreaWeight, DelayWeight *float64
	// Order and Limit rank the answer. A query is ranked when Order.Attr
	// is set or Limit is positive; a positive Limit keeps only the best
	// Limit candidates.
	Order Order
	Limit int
}

// Candidate is one query answer. The implementation's component type is
// available as Impl.Component.
type Candidate struct {
	// Impl is the matching implementation, sharing the cache's backing
	// slices: read-only, Clone to retain it past the visit (see DB.Find).
	Impl Impl
	// Area and Delay are the cost estimates the query evaluated for this
	// candidate: at a width point (Query.Width) they are the estimator
	// expressions evaluated at that width, otherwise the implementation's
	// scalar per-bit estimates (Impl.Area / Impl.Delay).
	Area  float64
	Delay float64
	// Cost is the ranking score: Area*area_weight + Delay*delay_weight,
	// with weights taken from the query or else the tool parameters (tool
	// "icdb", defaulting to 1). Lower is better. Cost carries the weighted
	// score even when a query is ordered by a different attribute.
	Cost float64
}

// OrderKeyCost is the Order.Attr value that ranks by the weighted cost
// score rather than a raw attribute.
const OrderKeyCost = "cost"

// Order selects the sort key of a ranked query. The zero Order ranks
// like OrderKeyCost: weighted cost, cheapest first. Attr may be
// OrderKeyCost or any attribute in ConstraintAttrs; Desc reverses the
// direction. Ties are always broken by implementation name, ascending,
// regardless of direction — so an order is total and a bounded query
// returns the same candidates as an unbounded one truncated.
type Order struct {
	Attr string
	Desc bool
}

// OrderKeys returns every valid Order.Attr value in deterministic order.
func OrderKeys() []string {
	return append([]string{OrderKeyCost}, ConstraintAttrs()...)
}

// slotCost is the pseudo-slot of the weighted cost score, the default
// sort key.
const slotCost = -1

// sortKey is an Order resolved for one query: the slot its key names
// (slotCost for the weighted score) and the direction.
type sortKey struct {
	slot int
	desc bool
}

// resolve turns the key name into a slot once, before any row is
// visited, rejecting unknown keys eagerly.
func (o Order) resolve() (sortKey, error) {
	switch {
	case o.Attr == "" || o.Attr == OrderKeyCost:
		return sortKey{slot: slotCost, desc: o.Desc}, nil
	case slices.Contains(ConstraintAttrs(), o.Attr):
		return sortKey{slot: slotOf(o.Attr), desc: o.Desc}, nil
	}
	return sortKey{}, fmt.Errorf("icdb: unknown order key %q (have %s)", o.Attr, strings.Join(OrderKeys(), ", "))
}

// rank computes e's sort key: the value candidates are compared by,
// negated for descending orders so ranking logic is always ascending.
// area and delay are the query-evaluated estimates (see Candidate.Area),
// so ordering by them is width-aware at a width point.
func (k sortKey) rank(e *implEntry, area, delay, cost float64) float64 {
	v := cost
	switch k.slot {
	case slotCost: // v holds it
	case slotArea:
		v = area
	case slotDelay:
		v = delay
	default:
		v = e.a[k.slot]
	}
	if k.desc {
		return -v
	}
	return v
}

// RankWeights returns the database-default ranking weights: the tool
// parameters area_weight and delay_weight of tool "icdb", each
// defaulting to 1 when unset. Queries score candidates
// Area*area + Delay*delay with these weights unless the query overrides
// them (Query.AreaWeight, Query.DelayWeight). They are the catalog's
// part over the tool-parameters relation, so a query reads them once per
// SetToolParam or direct write, not once per call; a relation that
// cannot be read is an error, never the defaults.
func (db *DB) RankWeights() (area, delay float64, err error) {
	r, err := db.read(needWeights, nil)
	if err != nil {
		return 0, 0, err
	}
	w := r.weights()
	return w.area, w.delay, nil
}

// Find runs q, yielding each answer to visit; visit returning false stops
// the delivery.
//
// A ranked query (Order.Attr set, or Limit > 0) ranks before it yields —
// bounded by a Limit-sized heap — and visit receives candidates best
// first. An unranked query streams: candidates arrive as they are found,
// in unspecified order, without being materialized. Neither copies
// anything for the visitor: the yielded Impl shares the cache's backing
// slices — treat it as read-only and call Impl.Clone before retaining it
// past the visit.
//
// Either way the query reads one state of the store (see catalog) and
// holds no lock while visit runs, so visit may take arbitrarily long and
// may call back into the DB: re-entrant queries and registrations proceed
// normally, and a registration made meanwhile lands in a fresh part the
// query in flight does not see.
func (db *DB) Find(q Query, visit func(Candidate) bool) error {
	key, err := q.Order.resolve() // an unranked query's zero Order always resolves
	if err != nil {
		return err
	}
	if err := checkWidth(q.Width); err != nil {
		return err
	}
	n := needImpls | needWeights
	if q.Width != 0 {
		n |= needEsts // a width-free query never builds or decodes estimators
	}
	r, err := db.read(n, nil)
	if err != nil {
		return err
	}
	ev := db.newAttrEval(&r, q.Constraints, q.Width, q.AreaWeight, q.DelayWeight)
	d := r.impls()
	if q.Order.Attr == "" && q.Limit <= 0 {
		return ev.scan(d, &q, func(e *implEntry, area, delay, cost float64) bool {
			return visit(Candidate{Impl: *e.im, Area: area, Delay: delay, Cost: cost})
		})
	}
	// The usual limits (5 to 20) fit the first allocation; a larger one
	// grows like any slice, so an enormous limit costs nothing until used.
	h := candHeap{limit: q.Limit, items: make([]heapItem, 0, min(q.Limit, 32))}
	err = ev.scan(d, &q, func(e *implEntry, area, delay, cost float64) bool {
		h.offer(heapItem{im: e.im, area: area, delay: delay, cost: cost, rank: key.rank(e, area, delay, cost)})
		return true
	})
	if err != nil {
		return err
	}
	// a sorts before b exactly when b ranks strictly after a.
	slices.SortStableFunc(h.items, func(a, b heapItem) int {
		switch {
		case worse(b, a):
			return -1
		case worse(a, b):
			return 1
		}
		return 0
	})
	for _, it := range h.items {
		if !visit(Candidate{Impl: *it.im, Area: it.area, Delay: it.delay, Cost: it.cost}) {
			return nil
		}
	}
	return nil
}

// attrEval is the evaluation context of one query (or one EstimateImpl
// call): the constraints, the ranking weights, the width point — zero is
// the scalar engine, attributes read straight off the implementation; a
// positive width evaluates estimator expressions there — and the one
// slot vector every candidate is loaded into in turn. Its weights and
// compiled estimators come from the same reading as the implementations
// it evaluates, so one query sees one consistent (implementation,
// estimator, weights) state end to end.
type attrEval struct {
	db     *DB
	cs     []Constraint
	wa, wd float64
	width  int
	// ests is the estimators part r pinned, at a width point; pairs is
	// the join of list, the posting list the scan is on, to it.
	ests  *part
	list  *postList
	pairs []estPair
	s     slots
}

// newAttrEval resolves what every evaluating path needs before its first
// candidate from r: the ranking weights (the overrides where set) and, at
// a width point, the estimators r pinned.
func (db *DB) newAttrEval(r *reading, cs []Constraint, width int, wArea, wDelay *float64) *attrEval {
	ev := &attrEval{db: db, cs: cs, width: width}
	ev.wa, ev.wd = r.weights().with(wArea, wDelay)
	if width != 0 {
		ev.ests = r.cat[partEsts]
	}
	return ev
}

// fill loads e into the slot vector and returns the evaluated area and
// delay estimates, est holding e's estimator programs. At a width point
// the vector gains width and, once both estimators have run, its
// area/delay slots are replaced by the evaluated values, so constraints
// filter on exactly what ranking scores. Estimator expressions
// themselves see the scalar attributes (area and delay are the per-bit
// estimates while both expressions evaluate). A result that is not a
// finite number is an error: it cannot be ranked (NaN has no order) or
// recorded.
func (ev *attrEval) fill(e *implEntry, est estPair) (area, delay float64, err error) {
	s := &ev.s
	s.fillEntry(e)
	area, delay = e.a[slotArea], e.a[slotDelay]
	if ev.width == 0 {
		return area, delay, nil
	}
	s.setWidth(ev.width)
	if est.area != nil {
		if area, err = ev.estimate(est.area, "area", e.im); err != nil {
			return 0, 0, err
		}
	}
	if est.delay != nil {
		if delay, err = ev.estimate(est.delay, "delay", e.im); err != nil {
			return 0, 0, err
		}
	}
	s.v[slotArea], s.v[slotDelay] = area, delay
	return area, delay, nil
}

// estimate runs one compiled estimator over the loaded slot vector.
func (ev *attrEval) estimate(p *estProg, attr string, im *Impl) (float64, error) {
	v, err := p.eval(&ev.s)
	if err != nil {
		return 0, fmt.Errorf("icdb: estimator %s(%s): %w", attr, im.Name, err)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("icdb: estimator %s(%s) at width %d: result is not a finite number", attr, im.Name, ev.width)
	}
	return v, nil
}

// evalAccept evaluates e at ev's width point and runs the constraints
// over the slot vector, then the width point's coverage filter. Nothing
// is allocated per candidate: the vector lives in ev and the constraints
// are compiled (slot comparisons and closure trees), so a constrained
// stream costs O(1) allocations in all.
func (ev *attrEval) evalAccept(e *implEntry, est estPair) (area, delay float64, ok bool, err error) {
	if len(ev.cs) == 0 && ev.width == 0 {
		return e.a[slotArea], e.a[slotDelay], true, nil
	}
	area, delay, err = ev.fill(e, est)
	if err != nil {
		return 0, 0, false, err
	}
	for i := range ev.cs {
		pass, err := ev.cs[i].accept(&ev.s)
		if err != nil || !pass {
			return 0, 0, false, err
		}
	}
	if w := float64(ev.width); ev.width != 0 && (e.a[slotWidthMin] > w || e.a[slotWidthMax] < w) {
		return 0, 0, false, nil
	}
	return area, delay, true, nil
}

// scan drives one query's stream end to end: constraint filtering,
// costing, and delivery of each survivor (its posting-list entry and its
// evaluated estimates) to visit, allocating O(1) total beyond what the
// visitor itself does. At a width point a candidate's estimators are
// read by its position in the list, from the list's join.
func (ev *attrEval) scan(d *derived, q *Query, visit func(e *implEntry, area, delay, cost float64) bool) error {
	var cerr error
	err := q.each(d, func(pl *postList, i int) bool {
		var est estPair
		if ev.width != 0 {
			if pl != ev.list {
				ev.list, ev.pairs = pl, ev.db.join(pl, ev.ests)
			}
			est = ev.pairs[i]
		}
		e := &pl.ents[i]
		area, delay, ok, err := ev.evalAccept(e, est)
		if err != nil {
			cerr = err
			return false
		}
		return !ok || visit(e, area, delay, area*ev.wa+delay*ev.wd)
	})
	if err != nil {
		return err
	}
	return cerr
}

// candHeap is a bounded worst-on-top heap over (rank, name): the root is
// the worst candidate retained, so a better offer evicts it in O(log k).
// A limit <= 0 keeps every offer, unordered, for one sort at the end.
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
	switch {
	case h.limit <= 0:
		h.items = append(h.items, it)
	case len(h.items) < h.limit:
		h.items = append(h.items, it)
		h.up(len(h.items) - 1)
	case worse(h.items[0], it):
		h.items[0] = it
		h.down(0)
	}
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

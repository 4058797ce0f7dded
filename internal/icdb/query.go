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
// the typed helpers ForWidth / MaxArea / MaxDelay / AtWidth. Either way
// it is compiled at construction: the typed helpers to slot comparisons,
// Where to a closure tree over the slot vector (compileExpr).
type Constraint struct {
	src string
	// cmps must all hold; where, when non-nil, must evaluate non-zero.
	cmps  []slotCmp
	where slotFn
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
		cmps: []slotCmp{
			{slot: slotWidthMin, op: cmpLE, v: float64(n)},
			{slot: slotWidthMax, op: cmpGE, v: float64(n)},
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
		cmps: []slotCmp{{slot: slotArea, op: cmpLE, v: area}},
	}
}

// MaxDelay keeps implementations whose delay estimate is at most d.
func MaxDelay(d float64) Constraint {
	return Constraint{
		src:  fmt.Sprintf("delay <= %g", d),
		cmps: []slotCmp{{slot: slotDelay, op: cmpLE, v: d}},
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

// rank computes im's sort key: the value candidates are compared by,
// negated for descending orders so ranking logic is always ascending.
// area and delay are the query-evaluated estimates (see Candidate.Area),
// so ordering by them is width-aware under AtWidth.
func (k sortKey) rank(im *Impl, area, delay, cost float64) float64 {
	v := cost
	switch k.slot {
	case slotArea:
		v = area
	case slotDelay:
		v = delay
	case slotStages:
		v = float64(im.Stages)
	case slotWidthMin:
		v = float64(im.WidthMin)
	case slotWidthMax:
		v = float64(im.WidthMax)
	}
	if k.desc {
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

// attrEval is the evaluation context of one query (or one EstimateImpl
// call): the constraints, the ranking weights, the width point — zero is
// the scalar engine, attributes read straight off the implementation; a
// positive width evaluates estimator expressions there — and the one
// slot vector every candidate is loaded into in turn. It reads the
// compiled estimators of one pinned estCache snapshot, so one query sees
// one consistent (implementation, estimator) pairing end to end.
type attrEval struct {
	cs     []Constraint
	wa, wd float64
	width  int
	ests   map[string]estPair
	s      slots
}

// newAttrEval resolves what every evaluating path needs before its first
// candidate: the width point (width, or cs's AtWidth when width is 0),
// the ranking weights, and — only at a width point, so a width-free
// query never builds or, lazily, decodes the estimators relation — the
// pinned estimator snapshot.
func (db *DB) newAttrEval(cs []Constraint, width int) (*attrEval, error) {
	if width == 0 {
		var err error
		if width, err = evalWidth(cs); err != nil {
			return nil, err
		}
	}
	ev := &attrEval{cs: cs, width: width}
	ev.wa, ev.wd = db.queryWeights(cs)
	if width != 0 {
		es, err := db.estSnap()
		if err != nil {
			return nil, err
		}
		ev.ests = es.ests
	}
	return ev, nil
}

// fill loads im into the slot vector and returns the evaluated area and
// delay estimates. At a width point the vector gains width and, once
// both estimators have run, its area/delay slots are replaced by the
// evaluated values, so constraints filter on exactly what ranking
// scores. Estimator expressions themselves see the scalar attributes
// (area and delay are the per-bit estimates while both expressions
// evaluate). A result that is not a finite number is an error: it cannot
// be ranked (NaN has no order) or recorded.
func (ev *attrEval) fill(im *Impl) (area, delay float64, err error) {
	s := &ev.s
	s.fillImpl(im)
	area, delay = im.Area, im.Delay
	if ev.width == 0 {
		return area, delay, nil
	}
	s.setWidth(ev.width)
	est := ev.ests[im.Name]
	if est.area != nil {
		if area, err = ev.estimate(est.area, "area", im); err != nil {
			return 0, 0, err
		}
	}
	if est.delay != nil {
		if delay, err = ev.estimate(est.delay, "delay", im); err != nil {
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

// evalAccept evaluates im at ev's width point and runs the constraints
// over the slot vector. Nothing is allocated per candidate: the vector
// lives in ev and the constraints are compiled (slot comparisons and
// closure trees), so a constrained stream costs O(1) allocations in all.
func (ev *attrEval) evalAccept(im *Impl) (area, delay float64, ok bool, err error) {
	if len(ev.cs) == 0 && ev.width == 0 {
		return im.Area, im.Delay, true, nil
	}
	area, delay, err = ev.fill(im)
	if err != nil {
		return 0, 0, false, err
	}
	for i := range ev.cs {
		pass, err := ev.cs[i].accept(&ev.s)
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
	key, err := order.resolve()
	if err != nil {
		return nil, err
	}
	var kept []heapItem
	// The usual limits (5 to 20) fit the first allocation; a larger k grows
	// like any slice, so an enormous limit costs nothing until it is used.
	h := candHeap{limit: k, items: make([]heapItem, 0, min(k, 32))}
	err = db.scanSeq(seq, cs, func(im *Impl, area, delay, cost float64) bool {
		it := heapItem{im: im, area: area, delay: delay, cost: cost, rank: key.rank(im, area, delay, cost)}
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
	if k > 0 {
		kept = h.items
	}
	// a sorts before b exactly when b ranks strictly after a.
	slices.SortStableFunc(kept, func(a, b heapItem) int {
		switch {
		case worse(b, a):
			return -1
		case worse(a, b):
			return 1
		}
		return 0
	})
	out := make([]Candidate, len(kept))
	for i, it := range kept {
		out[i] = Candidate{Impl: it.im.Clone(), Area: it.area, Delay: it.delay, Cost: it.cost}
	}
	return out, nil
}

// scanSeq drives one streamed query end to end: constraint filtering,
// costing, and delivery of each survivor (the cache's own *Impl and its
// evaluated estimates) to visit, allocating O(1) total beyond what the
// visitor itself does.
func (db *DB) scanSeq(seq implSeq, cs []Constraint, visit func(im *Impl, area, delay, cost float64) bool) error {
	ev, err := db.newAttrEval(cs, 0)
	if err != nil {
		return err
	}
	d, err := db.derivedSnap()
	if err != nil {
		return err
	}
	var cerr error
	err = seq(d, func(im *Impl) bool {
		area, delay, ok, err := ev.evalAccept(im)
		if err != nil {
			cerr = err
			return false
		}
		if !ok {
			return true
		}
		return visit(im, area, delay, area*ev.wa+delay*ev.wd)
	})
	if err != nil {
		return err
	}
	return cerr
}

// candidateVisitor adapts a public Scan visitor to scanSeq: the yielded
// Candidate's Impl shares the cache's backing (see QueryByFunctionScan).
func candidateVisitor(visit func(Candidate) bool) func(*Impl, float64, float64, float64) bool {
	return func(im *Impl, area, delay, cost float64) bool {
		return visit(Candidate{Impl: *im, Area: area, Delay: delay, Cost: cost})
	}
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
	}, cs, candidateVisitor(visit))
}

// QueryByComponentScan streams the implementations of one component type.
// See QueryByFunctionScan for the visitor contract.
func (db *DB) QueryByComponentScan(ct genus.ComponentType, visit func(Candidate) bool, cs ...Constraint) error {
	return db.scanSeq(func(d *derived, v func(*Impl) bool) error {
		return forEachByComponent(d, ct, v)
	}, cs, candidateVisitor(visit))
}

// QueryScan streams every registered implementation passing cs — the
// whole-catalog walk for tools that want their own filtering or
// aggregation without paying for a materialized copy. See
// QueryByFunctionScan for the visitor contract.
func (db *DB) QueryScan(visit func(Candidate) bool, cs ...Constraint) error {
	return db.scanSeq(forEachImpl, cs, candidateVisitor(visit))
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

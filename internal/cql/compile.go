package cql

import (
	"sort"
	"strings"

	"icdb/internal/genus"
	"icdb/internal/icdb"
)

// FindQuery is a compiled FindStmt, bound to a database and ready to
// run. Compilation resolves the statement's vocabulary (functions,
// component type, order key) and lowers the whole command onto one
// engine query.
type FindQuery struct {
	db *icdb.DB
	q  icdb.Query
}

// CompileFind lowers a parsed find command onto db's query engine.
// Vocabulary errors (unknown function or component type) are returned
// as *Error values positioned at the offending word, with suggestions.
func CompileFind(db *icdb.DB, f *FindStmt) (*FindQuery, error) {
	fq := &FindQuery{db: db}
	q := &fq.q
	if f.Type != nil {
		ct, ok := genus.NormalizeComponentType(f.Type.Text)
		if !ok {
			return nil, &Error{Col: f.Type.Col,
				Msg:  "unknown component type '" + f.Type.Text + "'",
				Hint: suggest(f.Type.Text, componentTypeNames())}
		}
		q.Type = ct
	}
	for _, w := range f.Executing {
		fn, err := genus.NormalizeFunction(w.Text)
		if err != nil {
			return nil, &Error{Col: w.Col,
				Msg:  "unknown function '" + w.Text + "'",
				Hint: suggest(w.Text, functionNames())}
		}
		q.Functions = append(q.Functions, fn)
	}
	for i := range f.Where {
		c, err := compileCond(&f.Where[i])
		if err != nil {
			return nil, err
		}
		q.Constraints = append(q.Constraints, c)
	}
	if f.At != nil {
		q.Width = f.At.Width
	}
	if f.OrderBy != nil {
		q.Order = icdb.Order{Attr: f.OrderBy.Key.Text, Desc: f.OrderBy.Desc}
	}
	if f.HasLimit {
		q.Limit = f.Limit
		if q.Order.Attr == "" {
			// Any limit clause ranks, "limit 0" (unbounded) included: name
			// the default key so the engine ranks by it.
			q.Order.Attr = icdb.OrderKeyCost
		}
	}
	return fq, nil
}

// compileCond lowers one attribute comparison onto an engine constraint.
// The "width" attribute is sugar over the implementation's width range:
//
//	width = n   → the range covers n (icdb.ForWidth)
//	width >= n  → some covered width is >= n (width_max >= n)
//	width > n   → width_max > n
//	width <= n  → some covered width is <= n (width_min <= n)
//	width < n   → width_min < n
//
// "width != n" has no single-range meaning and is rejected.
func compileCond(c *Cond) (icdb.Constraint, error) {
	if c.Attr.Text == "width" {
		switch c.Op {
		case EQ:
			if !c.ValueIsInt {
				return icdb.Constraint{}, errf(c.ValueCol, "width must be a whole number of bits, got %g", c.Value)
			}
			return icdb.ForWidth(int(c.Value)), nil
		case GE:
			return icdb.AttrCmp("width_max", icdb.CmpGE, c.Value)
		case GT:
			return icdb.AttrCmp("width_max", icdb.CmpGT, c.Value)
		case LE:
			return icdb.AttrCmp("width_min", icdb.CmpLE, c.Value)
		case LT:
			return icdb.AttrCmp("width_min", icdb.CmpLT, c.Value)
		}
		return icdb.Constraint{}, errf(c.OpCol, "'width != n' is not expressible over a width range; constrain width_min or width_max directly")
	}
	op, ok := map[Kind]icdb.CmpOp{
		LE: icdb.CmpLE, LT: icdb.CmpLT, GE: icdb.CmpGE,
		GT: icdb.CmpGT, EQ: icdb.CmpEQ, NE: icdb.CmpNE,
	}[c.Op]
	if !ok {
		return icdb.Constraint{}, errf(c.OpCol, "operator %s not valid in a constraint", c.OpText)
	}
	con, err := icdb.AttrCmp(c.Attr.Text, op, c.Value)
	if err != nil {
		return icdb.Constraint{}, errf(c.Attr.Col, "%v", err)
	}
	return con, nil
}

// Run executes the query, yielding each candidate to visit; visit
// returning false stops the delivery. With an order-by or limit clause
// the query is ranked, without it streamed: icdb.DB.Find states what
// each means for the yielded candidates.
func (q *FindQuery) Run(visit func(icdb.Candidate) bool) error {
	return q.db.Find(q.q, visit)
}

// functionNames returns the GENUS function vocabulary as strings, for
// suggestions.
func functionNames() []string {
	fns := genus.AllFunctions()
	out := make([]string, len(fns))
	for i, f := range fns {
		out[i] = string(f)
	}
	return out
}

// componentTypeNames returns the GENUS component-type vocabulary as
// strings, for suggestions.
func componentTypeNames() []string {
	cts := genus.AllComponentTypes()
	out := make([]string, len(cts))
	for i, ct := range cts {
		out[i] = string(ct)
	}
	return out
}

// generatorNames lists the registered generator names, sorted, for
// generate-command suggestions.
func generatorNames(db *icdb.DB) []string {
	gens, err := db.Generators()
	if err != nil {
		return nil
	}
	out := make([]string, len(gens))
	for i := range gens {
		out[i] = gens[i].Name
	}
	return out
}

// implNames lists the registered implementation names, sorted, for
// describe-command suggestions.
func implNames(db *icdb.DB) []string {
	impls, err := db.Impls()
	if err != nil {
		return nil
	}
	out := make([]string, len(impls))
	for i := range impls {
		out[i] = impls[i].Name
	}
	sort.Strings(out)
	return out
}

// joinFns renders a function set the way the catalog prints it.
func joinFns(fns []genus.Function) string {
	ss := make([]string, len(fns))
	for i, f := range fns {
		ss[i] = string(f)
	}
	return strings.Join(ss, ",")
}

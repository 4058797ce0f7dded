package cql

// Stmt is one parsed CQL command. The concrete types are FindStmt,
// ParetoStmt, ShowStmt, DescribeStmt, ExpandStmt, GenerateStmt,
// EstimateStmt, ExploreStmt, SetStmt, and HelpStmt.
type Stmt interface{ stmt() }

// Word is an identifier-like token with its source column, kept through
// the AST so the compiler can position vocabulary errors ("unknown
// function ...") exactly like the parser positions grammar errors.
type Word struct {
	Text string
	Col  int
}

// FindStmt is a "find component ..." command: the query-by-function/
// type/attribute production. All clauses are optional; with none, the
// whole catalog matches.
type FindStmt struct {
	// Target is the word after "find": "component", "components", or
	// "impls" (synonyms — the answer is always implementation rows).
	Target Word
	// Type is the component type of an "of type X" clause, nil if absent.
	Type *Word
	// Executing lists the function names of an "executing F and G ..."
	// clause; every listed function must be executable by a candidate.
	Executing []Word
	// Where lists the "with" clause's conjunction of attribute
	// comparisons.
	Where []Cond
	// At is the "at width N" evaluation-point clause, nil if absent:
	// candidates must cover the width, and area/delay are estimator-
	// evaluated there (see icdb.Query.Width).
	At *AtClause
	// OrderBy is the "order by" clause, nil if absent.
	OrderBy *OrderClause
	// Limit is the "limit N" bound; 0 means unlimited.
	Limit int
	// HasLimit distinguishes an absent limit clause from "limit 0".
	HasLimit bool
}

// Cond is one attribute comparison in a "with" clause: Attr Op Value.
type Cond struct {
	Attr Word
	// Op is the comparison token kind: LE, LT, GE, GT, EQ, or NE.
	Op Kind
	// OpText is the operator as written, for error messages.
	OpText string
	// OpCol is the operator's column.
	OpCol int
	// Value is the right-hand side number.
	Value float64
	// ValueIsInt reports whether Value was written as an integer.
	ValueIsInt bool
	// ValueCol is the number's column.
	ValueCol int
}

// OrderClause is an "order by KEY [asc|desc]" clause.
type OrderClause struct {
	Key  Word
	Desc bool
}

// AtClause is an "at width N" clause: the width the query's estimator
// expressions are evaluated at.
type AtClause struct {
	Width int
	// Col is the width number's column, for positioned errors.
	Col int
}

// ParetoStmt is a "find pareto ..." command: the non-dominated frontier
// of the explored design points, optionally restricted to one component
// type's or one generator's space and filtered by a "with" clause
// before dominance is decided.
type ParetoStmt struct {
	// Type is the component type of an "of type X" clause, nil if absent.
	Type *Word
	// Generator is the generator name of an "of generator G" clause, nil
	// if absent. The parser allows at most one of Type and Generator.
	Generator *Word
	// Where lists the "with" clause's conjunction of attribute
	// comparisons, applied to each design point before dominance.
	Where []Cond
	// At is the "at width N" clause, nil if absent: it pins the frontier
	// to points explored at exactly that width.
	At *AtClause
	// Dominated asks for dominated points too, each with its dominating
	// frontier point and margins.
	Dominated bool
	// Limit is the "limit N" bound on printed rows; 0 means unlimited.
	Limit int
	// HasLimit distinguishes an absent limit clause from "limit 0".
	HasLimit bool
}

// ExploreStmt is an "explore <generator> width <lo>..<hi> [step n]
// [materialize] [param=value ...]" command: sweep a generator's "size"
// parameter across a width range, recording each evaluated design point
// (and registering an implementation per point when materializing).
type ExploreStmt struct {
	// Gen is the generator to sweep.
	Gen Word
	// Lo and Hi are the inclusive width bounds of the sweep.
	Lo, Hi int
	// RangeCol is the range's column, for positioned errors.
	RangeCol int
	// Step is the sweep stride; 0 means the "step" clause was absent
	// (stride 1).
	Step int
	// Materialize runs Generate at every point instead of the estimators
	// alone.
	Materialize bool
	// Params binds the generator's parameters other than the swept
	// "size".
	Params []ExpandParam
}

// ShowStmt is a "show impls|components|functions" catalog listing.
type ShowStmt struct {
	// What is the listing selector: "impls", "components", or
	// "functions" (already validated by the parser).
	What Word
}

// DescribeStmt is a "describe <impl>" command: the full record of one
// implementation, including its IIF source.
type DescribeStmt struct {
	Name Word
}

// ExpandStmt is an "expand <file> [param=value ...]" command: parse the
// IIF design in the file and flatten it against the database.
type ExpandStmt struct {
	// Path is the design file path ("-" for standard input).
	Path Word
	// Params binds the design's PARAMETER names to integer values.
	Params []ExpandParam
}

// ExpandParam is one name=value binding of an expand command.
type ExpandParam struct {
	Name  Word
	Value int
}

// GenerateStmt is a "generate <generator|component> param=value ..."
// command: run a component generator at a parameter point and register
// the emitted implementation (see icdb.Generate). Name is a generator
// name or a component type whose generators are searched.
type GenerateStmt struct {
	Name   Word
	Params []ExpandParam
}

// EstimateStmt is an "estimate <impl> width=n [attr]" command: evaluate
// an implementation's estimator expressions at a width point. Attr
// restricts the output to one of area, delay, or cost; nil prints all
// three.
type EstimateStmt struct {
	Name  Word
	Width int
	// WidthCol is the width number's column, for positioned errors.
	WidthCol int
	Attr     *Word
}

// SetStmt is a "set <param> <value|off>" session command. Param is one
// of width (the session's default width evaluation point for find
// commands), area_weight, or delay_weight (session overrides of the
// database ranking weights); "off" clears the parameter back to its
// default.
type SetStmt struct {
	Param Word
	// Value is the new setting; meaningless when Off is true.
	Value float64
	// Off reports the "off" form.
	Off bool
	// ValueCol is the value token's column, for positioned errors.
	ValueCol int
}

// HelpStmt is the "help" command.
type HelpStmt struct{}

func (*FindStmt) stmt()     {}
func (*ParetoStmt) stmt()   {}
func (*ShowStmt) stmt()     {}
func (*DescribeStmt) stmt() {}
func (*ExpandStmt) stmt()   {}
func (*GenerateStmt) stmt() {}
func (*EstimateStmt) stmt() {}
func (*ExploreStmt) stmt()  {}
func (*SetStmt) stmt()      {}
func (*HelpStmt) stmt()     {}

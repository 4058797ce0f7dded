package cql

import (
	"fmt"
	"io"
	"strings"

	"icdb/internal/expand"
	"icdb/internal/genus"
	"icdb/internal/icdb"
	"icdb/internal/iif"
)

// HelpText is the command summary the "help" command prints; the full
// grammar lives in CQL.md. The attribute and order-key lists are built
// from the same engine vocabularies the parser validates against.
var HelpText = fmt.Sprintf(`CQL commands:
  find component [of type <Type>] [executing <Fn> and <Fn>...]
                 [with <attr> <op> <n> and ...]
                 [at width <bits>]
                 [order by %s [asc|desc]]
                 [limit <n>]
  find pareto [of type <Type> | of generator <G>]
              [with <attr> <op> <n> and ...] [at width <bits>]
              [dominated] [limit <n>]
  explore <generator> width <lo>..<hi> [step <n>] [materialize]
          [param=value ...]
  show impls | components | functions | generators | explorations
  describe <impl>
  expand <file|-> [param=value ...]
  generate <generator|component> param=value ...
  estimate <impl> width=<bits> [%s]
  set width <bits|off> | set area_weight <w|off> | set delay_weight <w|off>
  show session | show server
  help

Attributes: %s.
Operators:  <=  <  >=  >  =  !=   ("width = 8" means the range covers 8 bits).
With "at width <bits>", candidates must cover the width and area/delay
are the estimator expressions evaluated there (scalars when none is
registered).
Without "order by"/"limit", results stream in unspecified order; with
either, they arrive ranked (default key: weighted cost, ascending).
"explore" sweeps a generator's size across the width range, recording
each design point; "materialize" also registers the implementations.
"find pareto" streams the non-dominated frontier of the recorded
points in ascending area order; "dominated" adds the beaten points,
each naming the frontier point that dominates it and by how much.
Session parameters: "set width" is the default evaluation point for
find commands without an "at width" clause; the weight overrides
rescore ranking for this session only. "show session" lists them.
`, strings.Join(orderKeyWords, "|"), strings.Join(estimateWords, "|"), strings.Join(attrWords, ", "))

// Env is the execution environment of a CQL session: the database
// commands run against, the writer results are printed to, and the
// file loader expand commands read designs through.
type Env struct {
	// DB is the component database; it must be non-nil.
	DB *icdb.DB
	// Out receives command output. Errors are returned, not printed.
	Out io.Writer
	// ReadFile loads the design source for an expand command. Leaving it
	// nil disables expand (for embedders that must not touch the
	// filesystem); the command then fails with a positioned error.
	ReadFile func(path string) ([]byte, error)
	// ServerInfo, when non-nil, renders the "show server" operator view
	// (a network server binds its counters and limits here). Nil — the
	// local front-ends — makes the command fail with a positioned
	// error, since there is no server to describe.
	ServerInfo func(w io.Writer) error

	// expander is created lazily and kept for the Env's lifetime, so a
	// REPL session reuses parsed designs and expanded templates.
	expander *expand.Expander

	// Session parameters (the "set" command). width, when positive, is
	// the default width evaluation point applied to find commands that
	// have no "at width" clause of their own. wArea/wDelay, when non-nil,
	// override the database ranking weights for this session's queries.
	// Each Env is one session: a server gives every connection its own.
	width  int
	wArea  *float64
	wDelay *float64

	// row is the buffer the per-row renderers (render.go) reuse from one
	// row to the next, for the Env's lifetime.
	row []byte
}

// Exec parses and executes one CQL command line. Results stream to
// env.Out as they are produced; errors (including parse errors with
// their column positions) are returned.
func (env *Env) Exec(src string) error {
	stmt, err := Parse(src)
	if err != nil {
		return err
	}
	switch s := stmt.(type) {
	case *FindStmt:
		return env.execFind(s)
	case *ParetoStmt:
		return env.execPareto(s)
	case *ShowStmt:
		return env.execShow(s)
	case *DescribeStmt:
		return env.execDescribe(s)
	case *ExpandStmt:
		return env.execExpand(s)
	case *GenerateStmt:
		return env.execGenerate(s)
	case *EstimateStmt:
		return env.execEstimate(s)
	case *ExploreStmt:
		return env.execExplore(s)
	case *SetStmt:
		return env.execSet(s)
	case *HelpStmt:
		_, err := io.WriteString(env.Out, HelpText)
		return err
	}
	return fmt.Errorf("cql: unhandled statement %T", stmt)
}

// execFind compiles and runs a find command, printing one numbered row
// per candidate as the engine yields it. Session parameters apply here:
// a set width fills in for a missing "at width" clause, and weight
// overrides rescore the ranking. A failed write to env.Out stops the
// stream immediately — a streamed find over a large catalog must not
// keep scanning for a client that is gone.
func (env *Env) execFind(f *FindStmt) error {
	if f.At == nil && env.width > 0 {
		at := *f // the session default must not mutate the caller's AST
		at.At = &AtClause{Width: env.width}
		f = &at
	}
	q, err := CompileFind(env.DB, f)
	if err != nil {
		return err
	}
	q.q.AreaWeight, q.q.DelayWeight = env.wArea, env.wDelay
	n := 0
	var werr error
	err = q.Run(func(c icdb.Candidate) bool {
		n++
		// Area/Delay are the query-evaluated estimates: the scalars on a
		// plain find, the estimator values at the width of an "at width"
		// find.
		werr = env.writeRow(appendFindRow(env.row, n, &c))
		return werr == nil
	})
	if err != nil {
		return err
	}
	if werr != nil {
		return werr
	}
	if n == 0 {
		fmt.Fprintln(env.Out, "no matching implementations")
	}
	return nil
}

// execPareto compiles and runs a "find pareto" command, streaming the
// frontier (and, with "dominated", the beaten points with their
// explanations) as the engine yields it. Session weight overrides
// rescore the printed cost exactly as on the find path; the session
// width default is NOT applied — an "at width" pin on a frontier query
// filters to points explored at exactly that width, which must be an
// explicit ask. Like a streamed find, a failed write stops the stream.
func (env *Env) execPareto(f *ParetoStmt) error {
	q := icdb.ParetoQuery{Dominated: f.Dominated, AreaWeight: env.wArea, DelayWeight: env.wDelay}
	if f.Type != nil {
		ct, ok := genus.NormalizeComponentType(f.Type.Text)
		if !ok {
			return &Error{Col: f.Type.Col,
				Msg:  "unknown component type '" + f.Type.Text + "'",
				Hint: suggest(f.Type.Text, componentTypeNames())}
		}
		q.Component = ct
	}
	if f.Generator != nil {
		// Not validated against the generators relation: exploration
		// spaces also form under implementation names (EstimateImpl).
		q.Generator = f.Generator.Text
	}
	for i := range f.Where {
		c, err := compileCond(&f.Where[i])
		if err != nil {
			return err
		}
		q.Constraints = append(q.Constraints, c)
	}
	if f.At != nil {
		q.Width = f.At.Width
	}
	n, frontier := 0, 0
	var werr error
	err := env.DB.Pareto(q, func(p icdb.ParetoPoint) bool {
		if f.HasLimit && n >= f.Limit {
			return false
		}
		n++
		if !p.Dominated {
			frontier++
		}
		werr = env.writeRow(appendParetoRow(env.row, frontier, &p))
		return werr == nil
	})
	if err != nil {
		return err
	}
	if werr != nil {
		return werr
	}
	if n == 0 {
		fmt.Fprintln(env.Out, "no explored design points match (run 'explore' or 'generate' first)")
	}
	return nil
}

// execExplore resolves the generator, runs the sweep, and prints one
// row per evaluated design point.
func (env *Env) execExplore(s *ExploreStmt) error {
	if _, err := env.DB.GeneratorByName(s.Gen.Text); err != nil {
		return &Error{Col: s.Gen.Col,
			Msg:  "unknown generator '" + s.Gen.Text + "'",
			Hint: suggest(s.Gen.Text, generatorNames(env.DB))}
	}
	params := make(map[string]int, len(s.Params))
	for _, p := range s.Params {
		params[p.Name.Text] = p.Value
	}
	step := s.Step
	if step == 0 {
		step = 1
	}
	pts, err := env.DB.Explore(s.Gen.Text, s.Lo, s.Hi, step, params, s.Materialize)
	if err != nil {
		return errf(s.RangeCol, "%v", err)
	}
	for i := range pts {
		if err := env.writeRow(appendExploreRow(env.row, &pts[i])); err != nil {
			return err
		}
	}
	_, err = fmt.Fprintf(env.Out, "explored %d design point(s) of %s\n", len(pts), s.Gen.Text)
	return err
}

// execSet records one session parameter (see Env's session fields).
func (env *Env) execSet(s *SetStmt) error {
	switch s.Param.Text {
	case "width":
		if s.Off {
			env.width = 0
		} else {
			env.width = int(s.Value)
		}
	case "area_weight":
		env.wArea = setWeight(s)
	case "delay_weight":
		env.wDelay = setWeight(s)
	default:
		return errf(s.Param.Col, "unknown session parameter '%s'", s.Param.Text)
	}
	return env.showSession()
}

func setWeight(s *SetStmt) *float64 {
	if s.Off {
		return nil
	}
	v := s.Value
	return &v
}

// showSession prints the session parameters, marking which are session
// overrides and which fall through to the database defaults.
func (env *Env) showSession() error {
	dwa, dwd, err := env.DB.RankWeights()
	if err != nil {
		return err
	}
	w := env.Out
	if env.width > 0 {
		fmt.Fprintf(w, "width:        %d (default evaluation point for find)\n", env.width)
	} else {
		fmt.Fprintln(w, "width:        off (find uses scalar estimates unless 'at width' is given)")
	}
	if env.wArea != nil {
		fmt.Fprintf(w, "area_weight:  %g (session override; database default %g)\n", *env.wArea, dwa)
	} else {
		fmt.Fprintf(w, "area_weight:  %g (database default)\n", dwa)
	}
	if env.wDelay != nil {
		fmt.Fprintf(w, "delay_weight: %g (session override; database default %g)\n", *env.wDelay, dwd)
	} else {
		fmt.Fprintf(w, "delay_weight: %g (database default)\n", dwd)
	}
	return nil
}

// execShow prints one of the catalog listings in deterministic order
// (implementations in insertion order, vocabularies in GENUS order).
// Like a streamed find, every listing stops at the first sink failure
// — the server's cancel/quota/shutdown aborts land as write errors,
// and a dead client must not get the whole catalog rendered.
func (env *Env) execShow(s *ShowStmt) error {
	switch s.What.Text {
	case "session":
		return env.showSession()
	case "server":
		if env.ServerInfo == nil {
			return errf(s.What.Col, "show server needs a network session (connect to an icdbd server)")
		}
		return env.ServerInfo(env.Out)
	case "impls":
		var werr error
		err := env.DB.ImplsScan(func(im *icdb.Impl) bool {
			werr = env.writeRow(appendImplRow(env.row, im))
			return werr == nil
		})
		if err != nil {
			return err
		}
		return werr
	case "components":
		for _, ct := range genus.AllComponentTypes() {
			fns, err := env.DB.ComponentFunctions(ct)
			if err != nil {
				return err
			}
			if _, err := fmt.Fprintf(env.Out, "%-18s %s\n", ct, joinFns(fns)); err != nil {
				return err
			}
		}
	case "functions":
		for _, fn := range genus.AllFunctions() {
			var err error
			if a, ok := genus.Arity(fn); ok {
				_, err = fmt.Fprintf(env.Out, "%-10s %d in, %d out\n", fn, a.Inputs, a.Outputs)
			} else {
				_, err = fmt.Fprintf(env.Out, "%s\n", fn)
			}
			if err != nil {
				return err
			}
		}
	case "explorations":
		xs, err := env.DB.Explorations()
		if err != nil {
			return err
		}
		if len(xs) == 0 {
			fmt.Fprintln(env.Out, "no recorded explorations (run 'explore', 'generate', or 'estimate')")
			return nil
		}
		for i := range xs {
			if err := env.writeRow(appendExplorationRow(env.row, &xs[i])); err != nil {
				return err
			}
		}
	case "generators":
		gens, err := env.DB.Generators()
		if err != nil {
			return err
		}
		if len(gens) == 0 {
			fmt.Fprintln(env.Out, "no registered generators")
			return nil
		}
		for _, g := range gens {
			if _, err := fmt.Fprintf(env.Out, "%-12s %-18s %-12s width %d..%d area= %s delay= %s  %s\n",
				g.Name, g.Component, g.Style, g.WidthMin, g.WidthMax,
				g.AreaExpr, g.DelayExpr, genus.FunctionSetKey(g.Functions)); err != nil {
				return err
			}
		}
	}
	return nil
}

// execDescribe prints the full record of one implementation, its IIF
// source indented beneath the attributes.
func (env *Env) execDescribe(s *DescribeStmt) error {
	im, err := env.DB.ImplByName(s.Name.Text)
	if err != nil {
		return &Error{Col: s.Name.Col,
			Msg:  "unknown implementation '" + s.Name.Text + "'",
			Hint: suggest(s.Name.Text, implNames(env.DB))}
	}
	w := env.Out
	fmt.Fprintf(w, "name:      %s\n", im.Name)
	fmt.Fprintf(w, "component: %s\n", im.Component)
	fmt.Fprintf(w, "style:     %s\n", im.Style)
	fmt.Fprintf(w, "functions: %s\n", joinFns(im.Functions))
	fmt.Fprintf(w, "width:     %d..%d bits\n", im.WidthMin, im.WidthMax)
	fmt.Fprintf(w, "stages:    %d\n", im.Stages)
	fmt.Fprintf(w, "area:      %g (per bit)\n", im.Area)
	fmt.Fprintf(w, "delay:     %g (per bit)\n", im.Delay)
	fmt.Fprintf(w, "params:    %s\n", strings.Join(im.Params, ","))
	if ests, err := env.DB.Estimators(im.Name); err == nil && len(ests) > 0 {
		for _, attr := range icdb.EstimatorAttrs() {
			if expr, ok := ests[attr]; ok {
				fmt.Fprintf(w, "estimator: %s = %s\n", attr, expr)
			}
		}
	}
	fmt.Fprintln(w, "source:")
	for _, line := range strings.Split(strings.Trim(im.Source, "\n"), "\n") {
		fmt.Fprintf(w, "  | %s\n", line)
	}
	return nil
}

// execGenerate resolves a generator — by exact name, or the cheapest
// parameter-compatible generator of a component type — runs it at the
// binding point, and prints the registered implementation.
func (env *Env) execGenerate(s *GenerateStmt) error {
	params := make(map[string]int, len(s.Params))
	for _, p := range s.Params {
		params[p.Name.Text] = p.Value
	}
	g, err := env.DB.GeneratorByName(s.Name.Text)
	if err != nil {
		g, err = env.pickGenerator(s, params)
		if err != nil {
			return err
		}
	}
	im, reused, err := env.DB.Generate(g.Name, params)
	if err != nil {
		return errf(s.Name.Col, "%v", err)
	}
	verb := "registered"
	if reused {
		verb = "reused"
	}
	fmt.Fprintf(env.Out, "%s %s: %s %s width %d..%d area %g delay %g (generator %s)\n",
		verb, im.Name, im.Component, im.Style, im.WidthMin, im.WidthMax, im.Area, im.Delay, g.Name)
	return nil
}

// pickGenerator resolves a generate command's name as a component type
// and selects that type's cheapest generator at the binding point, among
// those whose parameter names match the given bindings.
func (env *Env) pickGenerator(s *GenerateStmt, params map[string]int) (icdb.Generator, error) {
	ct, ok := genus.NormalizeComponentType(s.Name.Text)
	if !ok {
		return icdb.Generator{}, &Error{Col: s.Name.Col,
			Msg:  "unknown generator or component type '" + s.Name.Text + "'",
			Hint: suggest(s.Name.Text, append(generatorNames(env.DB), componentTypeNames()...))}
	}
	gens, err := env.DB.GeneratorsByComponent(ct)
	if err != nil {
		return icdb.Generator{}, err
	}
	var best *icdb.Generator
	var bestCost float64
	for i := range gens {
		g := &gens[i]
		if !sameBindingNames(g.Params, params) {
			continue
		}
		// Filter by width coverage before ranking, exactly like the
		// expander's generator fallback: a cheap generator that cannot
		// stretch to the bound size must not shadow one that can.
		if sz, ok := params["size"]; ok && (sz < g.WidthMin || sz > g.WidthMax) {
			continue
		}
		_, _, cost, err := env.DB.GeneratorCost(*g, params)
		if err != nil {
			continue
		}
		if best == nil || cost < bestCost {
			best, bestCost = g, cost
		}
	}
	if best == nil {
		return icdb.Generator{}, errf(s.Name.Col, "no generator of type %s matches the given parameters", ct)
	}
	return *best, nil
}

// sameBindingNames reports whether the binding map covers exactly the
// declared parameter names.
func sameBindingNames(declared []string, params map[string]int) bool {
	if len(declared) != len(params) {
		return false
	}
	for _, p := range declared {
		if _, ok := params[p]; !ok {
			return false
		}
	}
	return true
}

// execEstimate evaluates one implementation's estimators at a width
// point and prints the requested attribute (or all three).
func (env *Env) execEstimate(s *EstimateStmt) error {
	if _, err := env.DB.ImplByName(s.Name.Text); err != nil {
		return &Error{Col: s.Name.Col,
			Msg:  "unknown implementation '" + s.Name.Text + "'",
			Hint: suggest(s.Name.Text, implNames(env.DB))}
	}
	area, delay, cost, err := env.DB.EstimateImpl(s.Name.Text, s.Width)
	if err != nil {
		return errf(s.WidthCol, "%v", err)
	}
	if s.Attr != nil {
		v := cost
		switch s.Attr.Text {
		case "area":
			v = area
		case "delay":
			v = delay
		}
		fmt.Fprintf(env.Out, "%s(%d) = %g\n", s.Attr.Text, s.Width, v)
		return nil
	}
	fmt.Fprintf(env.Out, "%s at width %d: area %g delay %g cost %g\n",
		s.Name.Text, s.Width, area, delay, cost)
	return nil
}

// execExpand reads, parses, and flattens an IIF design against the
// database, printing the expanded equation network.
func (env *Env) execExpand(s *ExpandStmt) error {
	if env.ReadFile == nil {
		return errf(s.Path.Col, "expand is not available in this session")
	}
	src, err := env.ReadFile(s.Path.Text)
	if err != nil {
		return errf(s.Path.Col, "%v", err)
	}
	params := make(map[string]int, len(s.Params))
	for _, p := range s.Params {
		params[p.Name.Text] = p.Value
	}
	d, err := iif.Parse(string(src))
	if err != nil {
		return err
	}
	if env.expander == nil {
		env.expander = expand.New(env.DB)
	}
	net, err := env.expander.Expand(d, params)
	if err != nil {
		return err
	}
	if err := net.Validate(); err != nil {
		return fmt.Errorf("expanded network is malformed: %w", err)
	}
	if _, err := net.TopoOrder(); err != nil {
		return err
	}
	_, err = io.WriteString(env.Out, net.Format())
	return err
}

// Generator and estimator relations. The paper's ICDB stores more than
// static implementations: component *generators* are procedures that emit
// an implementation on demand for a parameter point, and *estimators*
// predict an implementation's area/delay as a function of its parameters
// instead of a flat scalar. This file implements both relations on the
// relational store plus the evaluation machinery the query engine uses
// to rank candidates at a width point (see Query.Width).
package icdb

import (
	"fmt"
	"maps"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"

	"icdb/internal/genus"
	"icdb/internal/iif"
	"icdb/internal/relstore"
)

// Generator is one row of the generators relation: a parameterized
// procedure that synthesizes a concrete Impl for a parameter point (see
// Generate). Source is IIF text whose NAME equals the generator name and
// whose PARAMETER list equals Params; AreaExpr and DelayExpr are
// estimator expressions evaluated over the parameter bindings (plus
// width, width_min, width_max, and stages) to produce the generated
// implementation's cost estimates. Params must include "size", the GENUS
// width-parameter convention, so every generated implementation has a
// definite width.
type Generator struct {
	Name      string
	Component genus.ComponentType
	Style     string
	Functions []genus.Function
	WidthMin  int
	WidthMax  int
	Stages    int
	Params    []string
	AreaExpr  string
	DelayExpr string
	Source    string
}

// Clone returns a caller-owned copy of g with freshly allocated slices.
func (g *Generator) Clone() Generator {
	out := *g
	out.Functions = append([]genus.Function(nil), g.Functions...)
	out.Params = append([]string(nil), g.Params...)
	return out
}

// Executes reports whether the generator's function set contains fn.
func (g *Generator) Executes(fn genus.Function) bool {
	return slices.Contains(g.Functions, fn)
}

func genRow(g Generator) relstore.Row {
	return relstore.Row{
		"name":       g.Name,
		"component":  string(g.Component),
		"style":      g.Style,
		"functions":  genus.FunctionSetKey(g.Functions),
		"width_min":  g.WidthMin,
		"width_max":  g.WidthMax,
		"stages":     g.Stages,
		"params":     strings.Join(g.Params, ","),
		"area_expr":  g.AreaExpr,
		"delay_expr": g.DelayExpr,
		"source":     g.Source,
	}
}

func rowGen(r relstore.Row) Generator {
	g := Generator{
		Name:      asString(r["name"]),
		Component: genus.ComponentType(asString(r["component"])),
		Style:     asString(r["style"]),
		WidthMin:  asInt(r["width_min"]),
		WidthMax:  asInt(r["width_max"]),
		Stages:    asInt(r["stages"]),
		AreaExpr:  asString(r["area_expr"]),
		DelayExpr: asString(r["delay_expr"]),
		Source:    asString(r["source"]),
	}
	g.Functions = splitFunctions(asString(r["functions"]))
	if ps := asString(r["params"]); ps != "" {
		g.Params = strings.Split(ps, ",")
	}
	return g
}

// RegisterGenerator validates and upserts a generator row. The IIF
// source must parse with NAME equal to the generator name and a
// PARAMETER list matching Params (which must include "size"), the
// declared functions must be a non-empty subset of the component type's
// GENUS function set, and both estimator expressions must parse.
func (db *DB) RegisterGenerator(g Generator) error {
	if g.Name == "" {
		return fmt.Errorf("icdb: generator has no name")
	}
	ct, ok := genus.NormalizeComponentType(string(g.Component))
	if !ok {
		return fmt.Errorf("icdb: generator %s: unknown component type %q", g.Name, g.Component)
	}
	if len(g.Functions) == 0 {
		return fmt.Errorf("icdb: generator %s: executes no functions", g.Name)
	}
	for i, f := range g.Functions {
		if !slices.Contains(genus.Functions(ct), f) {
			return fmt.Errorf("icdb: generator %s: function %s not executable by component type %s", g.Name, f, ct)
		}
		if slices.Contains(g.Functions[:i], f) {
			return fmt.Errorf("icdb: generator %s: function %s is listed twice", g.Name, f)
		}
	}
	if g.WidthMin < 1 || g.WidthMax < g.WidthMin {
		return fmt.Errorf("icdb: generator %s: bad width range [%d,%d]", g.Name, g.WidthMin, g.WidthMax)
	}
	if !slices.Contains(g.Params, "size") {
		return fmt.Errorf("icdb: generator %s: PARAMETER list %v lacks the \"size\" width parameter", g.Name, g.Params)
	}
	for i, expr := range g.estimatorExprs() {
		attr := EstimatorAttrs()[i]
		if strings.TrimSpace(expr) == "" {
			return fmt.Errorf("icdb: generator %s: empty %s estimator expression", g.Name, attr)
		}
		if _, err := db.intern(expr); err != nil {
			return fmt.Errorf("icdb: generator %s: bad %s estimator %q: %w", g.Name, attr, expr, err)
		}
	}
	d, err := iif.Parse(g.Source)
	if err != nil {
		return fmt.Errorf("icdb: generator %s: bad IIF source: %w", g.Name, err)
	}
	if d.Name != g.Name {
		return fmt.Errorf("icdb: generator %q has IIF NAME %q; they must match", g.Name, d.Name)
	}
	if !sameNameSet(d.Params, g.Params) {
		return fmt.Errorf("icdb: generator %s: PARAMETER list %v does not match declared params %v", g.Name, d.Params, g.Params)
	}
	g.Component = ct
	return db.store.Upsert(TableGenerators, genRow(g))
}

// GeneratorByName fetches one generator by its exact name (a keyed point
// lookup, never a scan).
func (db *DB) GeneratorByName(name string) (Generator, error) {
	row, err := db.store.Get(TableGenerators, name)
	if err != nil {
		return Generator{}, fmt.Errorf("icdb: generator %q: %w", name, err)
	}
	return rowGen(row), nil
}

// Generators returns every registered generator, sorted by name.
func (db *DB) Generators() ([]Generator, error) {
	var out []Generator
	for r, err := range db.store.Rows(TableGenerators, nil) {
		if err != nil {
			return nil, err
		}
		out = append(out, rowGen(r))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// GeneratorsByComponent returns the generators of one component type,
// sorted by name. The lookup is served from the generators relation's
// secondary index on the component column.
func (db *DB) GeneratorsByComponent(ct genus.ComponentType) ([]Generator, error) {
	nct, ok := genus.NormalizeComponentType(string(ct))
	if !ok {
		return nil, fmt.Errorf("icdb: unknown component type %q", ct)
	}
	rows, err := db.store.Select(TableGenerators, relstore.Eq("component", string(nct)))
	if err != nil {
		return nil, err
	}
	out := make([]Generator, 0, len(rows))
	for _, r := range rows {
		out = append(out, rowGen(r))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// GeneratedImplName derives the implementation name Generate registers
// for a generator at a parameter point: the generator name followed by
// the sorted bindings, joined identifier-safely ("gen_cnt_size_16" for
// size=16). The underscore between a parameter name and its value keeps
// the encoding injective — parameter names cannot start with a digit,
// so distinct binding points never collide onto one name (a bare
// concatenation would map {a:12, a1:3} and {a:13, a1:2} to the same
// string). Deterministic, so repeated generations at one point collide
// onto one implementation by construction.
func GeneratedImplName(gen string, params map[string]int) string {
	parts := make([]string, 0, len(params))
	for k, v := range params {
		parts = append(parts, k+"_"+strconv.Itoa(v))
	}
	sort.Strings(parts)
	return gen + "_" + strings.Join(parts, "_")
}

// generatorEnv builds the attribute environment the generator's
// estimator expressions are evaluated against: the generator's width
// metadata plus every parameter binding by name, with "width" aliasing
// the bound size.
func (g *Generator) generatorEnv(params map[string]int) Attrs {
	a := Attrs{
		"width_min": float64(g.WidthMin),
		"width_max": float64(g.WidthMax),
		"stages":    float64(g.Stages),
	}
	for k, v := range params {
		a[k] = float64(v)
	}
	a["width"] = a["size"]
	return a
}

// GeneratorCost evaluates a generator's estimator expressions at a full
// parameter point (which must bind "size") and returns the predicted
// area, delay, and weighted cost of the implementation Generate would
// emit there. It is the ranking primitive for choosing among generators.
func (db *DB) GeneratorCost(g Generator, params map[string]int) (area, delay, cost float64, err error) {
	if _, ok := params["size"]; !ok {
		return 0, 0, 0, fmt.Errorf("icdb: generator %s: cost needs a size binding", g.Name)
	}
	env := g.generatorEnv(params)
	var vals [2]float64
	for i, expr := range g.estimatorExprs() {
		attr := EstimatorAttrs()[i]
		// The parsed expression comes from the intern table: a sweep of n
		// points parses each of the two expressions once, not n times.
		// Evaluation stays on the interpreter — env carries the generator's
		// own parameter names, which have no slots.
		p, perr := db.intern(expr)
		if perr != nil {
			return 0, 0, 0, fmt.Errorf("icdb: generator %s: bad %s estimator %q: %w", g.Name, attr, expr, perr)
		}
		v, verr := evalAttr(p.expr, env)
		if verr != nil {
			return 0, 0, 0, fmt.Errorf("icdb: generator %s: %s estimator: %w", g.Name, attr, verr)
		}
		vals[i] = v
	}
	area, delay = vals[0], vals[1]
	wa, wd, err := db.RankWeights()
	if err != nil {
		return 0, 0, 0, err
	}
	return area, delay, area*wa + delay*wd, nil
}

// estimatorExprs returns the generator's estimator expressions in
// EstimatorAttrs order (area, then delay) — the order they are validated
// and evaluated in, so which of two bad expressions is reported never
// varies.
func (g *Generator) estimatorExprs() [2]string {
	return [2]string{g.AreaExpr, g.DelayExpr}
}

// genNamePat matches the "NAME: <generator>;" header of a generator's
// IIF source, so Generate can rename the emitted implementation.
func genNamePat(name string) *regexp.Regexp {
	return regexp.MustCompile(`(?i)NAME\s*:\s*` + regexp.QuoteMeta(name) + `\s*;`)
}

// Generate runs a generator at a parameter point: it synthesizes a
// concrete implementation named GeneratedImplName(name, params), with
// the width range pinned to the bound size, scalar area/delay estimates
// evaluated from the generator's estimator expressions at the point, and
// the generator's IIF source re-headed under the new name. The emitted
// implementation is registered through RegisterImpl — immediately
// queryable, expandable, and persisted like any hand-written row — and
// carries the generator's estimator expressions in the estimators
// relation. Generating the same point twice reuses the registered
// implementation (reused is true).
func (db *DB) Generate(name string, params map[string]int) (im Impl, reused bool, err error) {
	g, err := db.GeneratorByName(name)
	if err != nil {
		return Impl{}, false, err
	}
	if len(params) != len(g.Params) {
		return Impl{}, false, fmt.Errorf("icdb: generator %s: got %d binding(s), want parameters %v", g.Name, len(params), g.Params)
	}
	for _, p := range g.Params {
		v, ok := params[p]
		if !ok {
			return Impl{}, false, fmt.Errorf("icdb: generator %s: missing binding for parameter %q", g.Name, p)
		}
		if v < 0 {
			return Impl{}, false, fmt.Errorf("icdb: generator %s: parameter %s=%d must be non-negative", g.Name, p, v)
		}
	}
	size := params["size"]
	if size < g.WidthMin || size > g.WidthMax {
		return Impl{}, false, fmt.Errorf("icdb: generator %s: size %d outside generator width range [%d,%d]",
			g.Name, size, g.WidthMin, g.WidthMax)
	}
	implName := GeneratedImplName(g.Name, params)
	if existing, err := db.ImplByName(implName); err == nil {
		// Reuse is still an evaluation of the design point: make sure it
		// is on record (a value-equal no-op when the first Generate at
		// this point already recorded it).
		if err := db.RecordExploration(Exploration{
			Generator: g.Name,
			Bindings:  BindingsKey(params),
			Component: g.Component,
			Width:     size,
			Area:      existing.Area,
			Delay:     existing.Delay,
		}); err != nil {
			return Impl{}, false, err
		}
		return existing, true, nil
	}
	area, delay, _, err := db.GeneratorCost(g, params)
	if err != nil {
		return Impl{}, false, err
	}
	pat := genNamePat(g.Name)
	loc := pat.FindStringIndex(g.Source)
	if loc == nil {
		return Impl{}, false, fmt.Errorf("icdb: generator %s: cannot locate NAME header in IIF source", g.Name)
	}
	src := g.Source[:loc[0]] + "NAME: " + implName + ";" + g.Source[loc[1]:]
	im = Impl{
		Name:      implName,
		Component: g.Component,
		Style:     g.Style,
		Functions: append([]genus.Function(nil), g.Functions...),
		WidthMin:  size,
		WidthMax:  size,
		Stages:    g.Stages,
		Area:      area,
		Delay:     delay,
		Params:    append([]string(nil), g.Params...),
		Source:    src,
	}
	if err := db.RegisterImpl(im); err != nil {
		return Impl{}, false, fmt.Errorf("icdb: generate %s: %w", g.Name, err)
	}
	// Attach the generator's estimators so the generated implementation
	// stays width-aware under width-point queries and estimate commands.
	if err := db.RegisterEstimator(implName, "area", g.AreaExpr); err != nil {
		return Impl{}, false, err
	}
	if err := db.RegisterEstimator(implName, "delay", g.DelayExpr); err != nil {
		return Impl{}, false, err
	}
	// Every generated implementation is a design point of its generator's
	// space; record it so Pareto queries see it without a separate sweep.
	if err := db.RecordExploration(Exploration{
		Generator: g.Name,
		Bindings:  BindingsKey(params),
		Component: g.Component,
		Width:     size,
		Area:      area,
		Delay:     delay,
	}); err != nil {
		return Impl{}, false, err
	}
	return im, false, nil
}

// EstimatorAttrs returns the attribute names an estimator expression may
// be registered for.
func EstimatorAttrs() []string { return []string{"area", "delay"} }

// RegisterEstimator validates and upserts one estimator row: an IIF
// expression predicting attr ("area" or "delay") for implementation
// implName. The expression is evaluated over the implementation's scalar
// attributes plus "width" — the query's evaluation point (Query.Width) —
// so "area * width" scales the per-bit estimate, and a bare "area" or
// constant is the degenerate scalar-compatible case.
func (db *DB) RegisterEstimator(implName, attr, expr string) error {
	if !slices.Contains(EstimatorAttrs(), attr) {
		return fmt.Errorf("icdb: unknown estimator attribute %q (have %s)", attr, strings.Join(EstimatorAttrs(), ", "))
	}
	p, err := db.intern(expr)
	if err != nil {
		return fmt.Errorf("icdb: estimator %s(%s): bad expression %q: %w", attr, implName, expr, err)
	}
	if _, err := db.ImplByName(implName); err != nil {
		return fmt.Errorf("icdb: estimator %s(%s): %w", attr, implName, err)
	}
	return db.upsert(partEsts, relstore.Row{"impl": implName, "attr": attr, "expr": expr}, func(v any, shared bool) any {
		m := v.(estMap)
		if shared {
			m = maps.Clone(m)
		}
		m[implName] = m[implName].with(attr, p)
		return m
	})
}

// Estimators returns implName's estimator expressions (attr -> source)
// from the catalog part EstimateImpl reads: area and delay only, and a
// direct Store() row whose expression does not parse makes both fail.
func (db *DB) Estimators(implName string) (map[string]string, error) {
	r, err := db.read(needEsts, nil)
	if err != nil {
		return nil, err
	}
	ep := r.ests()[implName]
	out := make(map[string]string, 2)
	if ep.area != nil {
		out["area"] = ep.area.src
	}
	if ep.delay != nil {
		out["delay"] = ep.delay.src
	}
	return out, nil
}

// EstimateImpl evaluates implementation name's cost estimates at a width
// point: area and delay come from the registered estimator expressions
// (falling back to the stored scalars when none is registered), and cost
// is the weighted score queries rank by. The width must lie inside the
// implementation's width range. The implementation, its estimators and
// the weights come from one pin of the catalog: one state of the store.
func (db *DB) EstimateImpl(name string, width int) (area, delay, cost float64, err error) {
	r, err := db.read(needImpls|needEsts|needWeights, nil)
	if err != nil {
		return 0, 0, 0, err
	}
	im := r.impls().impls[name]
	if im == nil {
		return 0, 0, 0, fmt.Errorf("icdb: implementation %q: not registered", name)
	}
	if width < 1 {
		return 0, 0, 0, fmt.Errorf("icdb: estimate %s: width %d must be at least 1", name, width)
	}
	if width < im.WidthMin || width > im.WidthMax {
		return 0, 0, 0, fmt.Errorf("icdb: estimate %s: width %d outside implementation width range [%d,%d]",
			name, width, im.WidthMin, im.WidthMax)
	}
	ev := db.newAttrEval(&r, nil, width, nil, nil)
	e := entryOf(im)
	area, delay, err = ev.fill(&e, r.ests()[name])
	if err != nil {
		return 0, 0, 0, err
	}
	// An estimate is an evaluated design point too: record it under the
	// implementation's name so frontier queries over a component see
	// estimated stored implementations next to generator sweeps.
	if err := db.RecordExploration(Exploration{
		Generator: im.Name,
		Bindings:  BindingsKey(map[string]int{"width": width}),
		Component: im.Component,
		Width:     width,
		Area:      area,
		Delay:     delay,
	}); err != nil {
		return 0, 0, 0, err
	}
	return area, delay, area*ev.wa + delay*ev.wd, nil
}

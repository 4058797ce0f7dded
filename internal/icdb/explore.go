// Design-space exploration. The explorations relation records every
// evaluated design point — each Generate and EstimateImpl result, and
// each point of an Explore sweep — as a (component, generator, bindings,
// width, area, delay) tuple, the way DB4HLS stores whole HLS design
// spaces per kernel. On top of it, Explore sweeps a generator across a
// parameter range (evaluating estimators without materializing
// implementations unless asked) and the Pareto engine (pareto.go)
// answers frontier queries over the accumulated points.
package icdb

import (
	"fmt"
	"sort"

	"icdb/internal/genus"
	"icdb/internal/relstore"
)

// Exploration is one row of the explorations relation: a design point
// some tool has evaluated. Generator names the component generator that
// produced the point — or, for EstimateImpl results, the implementation
// estimated. Bindings is the canonical parameter-binding string
// (BindingsKey), which together with Generator identifies the point:
// re-evaluating a point upserts a value-equal row, a journal-silent
// no-op.
type Exploration struct {
	Generator string
	Bindings  string
	Component genus.ComponentType
	Width     int
	Area      float64
	Delay     float64
}

// PointID renders the point's identity — generator plus bindings — the
// way Pareto explanations and CQL output name it: "gen_cnt[size=16]".
func (e *Exploration) PointID() string {
	return e.Generator + "[" + e.Bindings + "]"
}

func explRow(e Exploration) relstore.Row {
	return relstore.Row{
		"generator": e.Generator,
		"bindings":  e.Bindings,
		"component": string(e.Component),
		"width":     e.Width,
		"area":      e.Area,
		"delay":     e.Delay,
	}
}

func rowExpl(r relstore.Row) Exploration {
	return Exploration{
		Generator: asString(r["generator"]),
		Bindings:  asString(r["bindings"]),
		Component: genus.ComponentType(asString(r["component"])),
		Width:     asInt(r["width"]),
		Area:      asFloat(r["area"]),
		Delay:     asFloat(r["delay"]),
	}
}

// RecordExploration validates and upserts one design point. Generate,
// EstimateImpl, and Explore record their results through it; tools
// importing externally evaluated design spaces may call it directly.
// Recording an already-known point with identical values is a no-op
// (nothing journaled, no generation moved). An effective record is
// handed on to the frontier cache as a delta (noteExploration), so the
// next frontier query does not rebuild its scope.
func (db *DB) RecordExploration(e Exploration) error {
	if e.Generator == "" {
		return fmt.Errorf("icdb: exploration has no generator")
	}
	if e.Bindings == "" {
		return fmt.Errorf("icdb: exploration %s has no bindings", e.Generator)
	}
	if e.Width < 1 {
		return fmt.Errorf("icdb: exploration %s[%s]: width %d must be at least 1", e.Generator, e.Bindings, e.Width)
	}
	if err := checkFinite("exploration "+e.PointID(), e.Area, e.Delay); err != nil {
		return err
	}
	ct, ok := genus.NormalizeComponentType(string(e.Component))
	if !ok {
		return fmt.Errorf("icdb: exploration %s[%s]: unknown component type %q", e.Generator, e.Bindings, e.Component)
	}
	e.Component = ct
	// wmu from before the upsert until its delta is noted, as every
	// registration (see catalog): the deltas of concurrent calls reach
	// the cache in the order the store applied them, and a frontier query
	// that has seen this upsert's generation waits for the delta instead
	// of rebuilding.
	db.wmu.Lock()
	defer db.wmu.Unlock()
	res, err := db.store.UpsertStamped(TableExplorations, explRow(e))
	if err != nil || res.Before == res.After {
		return err
	}
	db.pmu.Lock()
	defer db.pmu.Unlock()
	db.noteExploration(res, e)
	return nil
}

// Explorations returns every recorded design point, sorted by generator
// then bindings.
func (db *DB) Explorations() ([]Exploration, error) {
	var out []Exploration
	for r, err := range db.store.Rows(TableExplorations, nil) {
		if err != nil {
			return nil, err
		}
		out = append(out, rowExpl(r))
	}
	sortExplorations(out)
	return out, nil
}

// ExplorationCount reports how many design points are recorded, without
// decoding any.
func (db *DB) ExplorationCount() (int, error) {
	return db.store.Count(TableExplorations, nil)
}

func sortExplorations(out []Exploration) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Generator != out[j].Generator {
			return out[i].Generator < out[j].Generator
		}
		if out[i].Width != out[j].Width {
			return out[i].Width < out[j].Width
		}
		return out[i].Bindings < out[j].Bindings
	})
}

// ExplorePoint is one evaluated point of an Explore sweep: the swept
// width, the estimator-predicted area/delay, and the weighted cost at
// the database's ranking weights. Impl is the registered implementation
// name when the sweep materialized (Reused marks a reuse-deduped hit on
// an implementation generated earlier); empty for estimate-only sweeps.
type ExplorePoint struct {
	Width  int
	Area   float64
	Delay  float64
	Cost   float64
	Impl   string
	Reused bool
}

// Explore sweeps generator gen's "size" parameter from lo to hi
// (inclusive) in the given step, recording each evaluated point in the
// explorations relation and returning the points in sweep order. By
// default a point costs one estimator evaluation — no implementation is
// registered; with materialize, Generate runs at every point and each
// emitted implementation is exactly what a direct Generate call at that
// binding point registers. fixed binds the generator's parameters other
// than "size" (nil when "size" is the only parameter); the full swept
// range must lie inside the generator's width range.
func (db *DB) Explore(gen string, lo, hi, step int, fixed map[string]int, materialize bool) ([]ExplorePoint, error) {
	g, err := db.GeneratorByName(gen)
	if err != nil {
		return nil, err
	}
	if lo < 1 || hi < lo {
		return nil, fmt.Errorf("icdb: explore %s: bad width range %d..%d", gen, lo, hi)
	}
	if step < 1 {
		return nil, fmt.Errorf("icdb: explore %s: step %d must be at least 1", gen, step)
	}
	if lo < g.WidthMin || hi > g.WidthMax {
		return nil, fmt.Errorf("icdb: explore %s: width range %d..%d outside generator range [%d,%d]",
			gen, lo, hi, g.WidthMin, g.WidthMax)
	}
	params := make(map[string]int, len(g.Params))
	for k, v := range fixed {
		if k == "size" {
			return nil, fmt.Errorf("icdb: explore %s: \"size\" is the swept parameter; it cannot also be bound", gen)
		}
		if v < 0 {
			return nil, fmt.Errorf("icdb: explore %s: parameter %s=%d must be non-negative", gen, k, v)
		}
		params[k] = v
	}
	params["size"] = lo
	if len(params) != len(g.Params) {
		return nil, fmt.Errorf("icdb: explore %s: got %d binding(s), want parameters %v", gen, len(params), g.Params)
	}
	for _, p := range g.Params {
		if _, ok := params[p]; !ok {
			return nil, fmt.Errorf("icdb: explore %s: missing binding for parameter %q", gen, p)
		}
	}
	var out []ExplorePoint
	for w := lo; w <= hi; w += step {
		params["size"] = w
		pt := ExplorePoint{Width: w}
		if materialize {
			im, reused, err := db.Generate(gen, params)
			if err != nil {
				return nil, err
			}
			wa, wd, err := db.RankWeights()
			if err != nil {
				return nil, err
			}
			pt.Area, pt.Delay, pt.Cost = im.Area, im.Delay, im.Area*wa+im.Delay*wd
			pt.Impl, pt.Reused = im.Name, reused
		} else {
			area, delay, cost, err := db.GeneratorCost(g, params)
			if err != nil {
				return nil, err
			}
			pt.Area, pt.Delay, pt.Cost = area, delay, cost
			if err := db.RecordExploration(Exploration{
				Generator: g.Name,
				Bindings:  BindingsKey(params),
				Component: g.Component,
				Width:     w,
				Area:      area,
				Delay:     delay,
			}); err != nil {
				return nil, err
			}
		}
		out = append(out, pt)
	}
	return out, nil
}

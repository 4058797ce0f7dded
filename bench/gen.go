package main

// gen.go builds the benchmark's catalogs from a seed and, beside each
// store, the harness-side model the oracle answers from. It copies the
// shape of internal/benchgen but does not import it: a later change to
// benchgen must not move this benchmark's workload.

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"icdb/internal/genus"
	"icdb/internal/icdb"
	"icdb/internal/relstore"
)

// srcTemplate is the IIF source every registered synthetic
// implementation carries; RegisterImpl parses it.
const srcTemplate = `
NAME: %s;
PARAMETER: size;
VARIABLE: i;
INORDER: A[size], B[size];
OUTORDER: O[size];
{
  #for(i = 0; i < size; i++)
    O[i] = A[i] * B[i];
}
`

// explGenerators is how many implementation names the synthetic
// exploration points cluster under.
const explGenerators = 1024

// estimator says how an implementation's area and delay scale at a
// width point. The zero value is the scalar case (no estimator rows).
type estimator struct {
	area, delay func(im *mImpl, w float64) float64
}

func perBit(v func(*mImpl) float64) func(*mImpl, float64) float64 {
	return func(im *mImpl, w float64) float64 { return v(im) * w }
}

var (
	imArea  = func(im *mImpl) float64 { return im.Area }
	imDelay = func(im *mImpl) float64 { return im.Delay }
	// estFlat is "area * width" / "delay"; estLinear scales both.
	estFlat   = estimator{area: perBit(imArea), delay: func(im *mImpl, _ float64) float64 { return im.Delay }}
	estLinear = estimator{area: perBit(imArea), delay: perBit(imDelay)}
)

// mImpl is the model's view of one implementations row.
type mImpl struct {
	Name, Comp, Style string
	Fns               []genus.Function
	fnMask            uint64
	WMin, WMax        int
	Stages            int
	Area, Delay       float64
	Source            string
	est               estimator
	estExprs          [2]string // area, delay expression text ("" when none)
}

// at evaluates the implementation's estimates at a width point (0 means
// the scalar per-bit estimates).
func (im *mImpl) at(w int) (area, delay float64) {
	area, delay = im.Area, im.Delay
	if w == 0 {
		return
	}
	if im.est.area != nil {
		area = im.est.area(im, float64(w))
	}
	if im.est.delay != nil {
		delay = im.est.delay(im, float64(w))
	}
	return
}

// mPoint is the model's view of one explorations row.
type mPoint struct {
	Gen, Bindings, Comp string
	Width               int
	Area, Delay         float64
}

func (p *mPoint) id() string { return p.Gen + "[" + p.Bindings + "]" }

// model is everything the oracle knows: the rows the generator wrote,
// in insertion order, plus what acknowledged writes added since.
type model struct {
	impls  []*mImpl
	byName map[string]*mImpl
	// points is every exploration row, kept in frontier sweep order
	// (pointLess) so that a frontier question never has to sort.
	points []*mPoint
	seen   map[string]bool // exploration keys "gen\x00bindings"
	fnBit  map[genus.Function]uint
}

func newModel() *model {
	m := &model{byName: map[string]*mImpl{}, seen: map[string]bool{}, fnBit: map[genus.Function]uint{}}
	for i, f := range genus.AllFunctions() {
		m.fnBit[f] = uint(i)
	}
	return m
}

func (m *model) addImpl(im *mImpl) {
	for _, f := range im.Fns {
		im.fnMask |= 1 << m.fnBit[f]
	}
	m.impls = append(m.impls, im)
	m.byName[im.Name] = im
}

// addPoint records an exploration point, reporting whether it is new.
// A repeated key is value-equal by construction (every writer here is a
// pure function of the key), which the store treats as a no-op.
func (m *model) addPoint(p mPoint) bool {
	k := p.Gen + "\x00" + p.Bindings
	if m.seen[k] {
		return false
	}
	m.seen[k] = true
	i := sort.Search(len(m.points), func(i int) bool { return pointLess(&p, m.points[i]) })
	m.points = slices.Insert(m.points, i, &p)
	return true
}

// loadPoints adds the generator's own points in bulk; a sorted insert
// per point would be quadratic at catalog size.
func (m *model) loadPoints(ps []mPoint) {
	for i := range ps {
		m.seen[ps[i].Gen+"\x00"+ps[i].Bindings] = true
		m.points = append(m.points, &ps[i])
	}
	sort.Slice(m.points, func(i, j int) bool { return pointLess(m.points[i], m.points[j]) })
}

// builtinModel mirrors the library icdb.Open seeds into every store.
// The numbers are copied, not imported: the oracle must not share code
// with the engine it checks.
func builtinModel(m *model) {
	add := func(name, comp, style string, fns []genus.Function, stages int, area, delay float64, e estimator, ex [2]string) {
		m.addImpl(&mImpl{Name: name, Comp: comp, Style: style, Fns: fns, WMin: 1, WMax: 64,
			Stages: stages, Area: area, Delay: delay, est: e, estExprs: ex})
	}
	flat := [2]string{"area * width", "delay"}
	lin := [2]string{"area * width", "delay * width"}
	sto := []genus.Function{genus.FuncSTORAGE, genus.FuncLOAD, genus.FuncSTORE}
	cnt := []genus.Function{genus.FuncINC, genus.FuncCOUNTER, genus.FuncSTORAGE, genus.FuncLOAD, genus.FuncSTORE}
	add("reg_d", "Register", "dff", sto, 1, 6, 1, estFlat, flat)
	add("cnt_up", "Counter", "synchronous", cnt, 1, 12, 2, estFlat, flat)
	add("cnt_ripple", "Counter", "ripple", []genus.Function{genus.FuncINC, genus.FuncCOUNTER}, 1, 7, 9, estLinear, lin)
	add("tri_buf", "Tri_state", "cmos", []genus.Function{genus.FuncTriState}, 0, 2, 1, estFlat, flat)
	add("logic_and", "Logic_unit", "gate", []genus.Function{genus.FuncAND}, 0, 1, 1, estFlat, flat)
	add("add_ripple", "Adder_Subtractor", "ripple", []genus.Function{genus.FuncADD}, 0, 9, 6, estLinear, lin)
}

// mGen is the model's view of a builtin generator.
type mGen struct {
	Name, Comp, Style string
	Fns               []genus.Function
	Stages            int
	area, delay       func(w float64) float64
	exprs             [2]string
}

var builtinGens = map[string]*mGen{
	"gen_cnt": {Name: "gen_cnt", Comp: "Counter", Style: "synchronous", Stages: 1,
		Fns:   []genus.Function{genus.FuncINC, genus.FuncCOUNTER, genus.FuncSTORAGE, genus.FuncLOAD, genus.FuncSTORE},
		area:  func(w float64) float64 { return 12 * w },
		delay: func(w float64) float64 { return 2 + w/16 },
		exprs: [2]string{"12 * width", "2 + width / 16"}},
	"gen_sub": {Name: "gen_sub", Comp: "Adder_Subtractor", Style: "ripple", Stages: 0,
		Fns:   []genus.Function{genus.FuncSUB},
		area:  func(w float64) float64 { return 10 * w },
		delay: func(w float64) float64 { return 6 + w },
		exprs: [2]string{"10 * width", "6 + width"}},
}

// genNames lists the builtin generators in the order write ops pick
// them.
var genNames = []string{"gen_cnt", "gen_sub"}

// generated adds the implementation "generate g size=n" registers, if
// the model does not hold it yet, and the design point it records.
func (m *model) generated(g *mGen, n int) (name string, fresh bool) {
	name = fmt.Sprintf("%s_size_%d", g.Name, n)
	w := float64(n)
	if m.byName[name] == nil {
		fresh = true
		m.addImpl(&mImpl{Name: name, Comp: g.Comp, Style: g.Style, Fns: g.Fns, WMin: n, WMax: n,
			Stages: g.Stages, Area: g.area(w), Delay: g.delay(w),
			est: estimator{
				area:  func(_ *mImpl, w float64) float64 { return g.area(w) },
				delay: func(_ *mImpl, w float64) float64 { return g.delay(w) },
			},
			estExprs: g.exprs})
	}
	m.addPoint(mPoint{Gen: g.Name, Bindings: fmt.Sprintf("size=%d", n), Comp: g.Comp, Width: n, Area: g.area(w), Delay: g.delay(w)})
	return name, fresh
}

// synthImpl draws implementation i's attributes from r. The catalog's
// structure does not depend on the seed: component types rotate so every
// type has the same share, and function sets are prefixes of the type's
// set whose lengths rotate too, so every function's posting list has the
// same size under every seed and only the attribute values move. The
// quarter-unit areas and delays keep ties rare without leaving what %g
// prints exactly.
func synthImpl(r *rand.Rand, i int) *mImpl {
	cts := genus.AllComponentTypes()
	ct := cts[i%len(cts)]
	fns := genus.Functions(ct)
	name := fmt.Sprintf("syn_%06d", i)
	return &mImpl{
		Name:     name,
		Comp:     string(ct),
		Style:    "synthetic",
		Fns:      fns[:1+(i/len(cts))%len(fns)],
		WMin:     1 + r.Intn(4),
		WMax:     16 + r.Intn(113),
		Stages:   r.Intn(4),
		Area:     float64(4+r.Intn(388)) / 4,
		Delay:    float64(4+r.Intn(212)) / 4,
		est:      estFlat,
		estExprs: [2]string{"area * width", "delay"},
	}
}

func synthPoint(r *rand.Rand, i, nImpls int) mPoint {
	cts := genus.AllComponentTypes()
	g := i % explGenerators
	if g >= nImpls {
		g %= nImpls
	}
	return mPoint{
		Gen:      fmt.Sprintf("syn_%06d", g),
		Bindings: fmt.Sprintf("size=%d", i),
		Comp:     string(cts[r.Intn(len(cts))]),
		Width:    1 + r.Intn(128),
		Area:     float64(4+r.Intn(39996)) / 4,
		Delay:    float64(4+r.Intn(1996)) / 4,
	}
}

// catalog is one generated database: the store, the model of what is in
// it, and the row count the generator wrote (for bytes-per-row).
type catalog struct {
	store *relstore.Store
	db    *icdb.DB
	model *model
	rows  int
}

// openSeeded opens a fresh store with the builtin library and rewrites
// the builtin estimator rows in sorted order: icdb.Open seeds them by
// ranging over a map, which would make row order — and so the snapshot
// bytes — differ from run to run.
func openSeeded() (*relstore.Store, *icdb.DB, error) {
	store := relstore.New()
	db, err := icdb.Open(store)
	if err != nil {
		return nil, nil, err
	}
	rows, err := store.Select(icdb.TableEstimators, nil)
	if err != nil {
		return nil, nil, err
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a["impl"] != b["impl"] {
			return a["impl"].(string) < b["impl"].(string)
		}
		return a["attr"].(string) < b["attr"].(string)
	})
	if _, err := store.Delete(icdb.TableEstimators, nil); err != nil {
		return nil, nil, err
	}
	for _, r := range rows {
		if err := store.Insert(icdb.TableEstimators, r); err != nil {
			return nil, nil, err
		}
	}
	db.InvalidateCaches()
	return store, db, nil
}

// buildRegistered generates the "fits every cache" catalog: n
// implementations through RegisterImpl (IIF parse included), an
// estimator pair each, and n exploration points.
func buildRegistered(seed int64, n int) (*catalog, error) {
	store, db, err := openSeeded()
	if err != nil {
		return nil, err
	}
	m := newModel()
	builtinModel(m)
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		im := synthImpl(r, i)
		im.Source = fmt.Sprintf(srcTemplate, im.Name)
		err := db.RegisterImpl(icdb.Impl{
			Name: im.Name, Component: genus.ComponentType(im.Comp), Style: im.Style,
			Functions: im.Fns, WidthMin: im.WMin, WidthMax: im.WMax, Stages: im.Stages,
			Area: im.Area, Delay: im.Delay, Params: []string{"size"}, Source: im.Source,
		})
		if err != nil {
			return nil, err
		}
		if err := db.RegisterEstimator(im.Name, "area", im.estExprs[0]); err != nil {
			return nil, err
		}
		if err := db.RegisterEstimator(im.Name, "delay", im.estExprs[1]); err != nil {
			return nil, err
		}
		m.addImpl(im)
	}
	points := make([]mPoint, n)
	for i := range points {
		p := synthPoint(r, i, n)
		err := db.RecordExploration(icdb.Exploration{Generator: p.Gen, Bindings: p.Bindings,
			Component: genus.ComponentType(p.Comp), Width: p.Width, Area: p.Area, Delay: p.Delay})
		if err != nil {
			return nil, err
		}
		points[i] = p
	}
	m.loadPoints(points)
	return &catalog{store: store, db: db, model: m, rows: 4 * n}, nil
}

// buildRaw generates the "does not fit warm" catalog: n implementation
// rows (no source), 2n estimator rows and n exploration rows written
// straight through Store.Upsert, skipping the per-row IIF parse that
// would dominate set-up at this size.
func buildRaw(seed int64, n int) (*catalog, error) {
	store, db, err := openSeeded()
	if err != nil {
		return nil, err
	}
	m := newModel()
	builtinModel(m)
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		im := synthImpl(r, i)
		err := store.Upsert(icdb.TableImplementations, relstore.Row{
			"name": im.Name, "component": im.Comp, "style": im.Style,
			"functions": genus.FunctionSetKey(im.Fns),
			"width_min": im.WMin, "width_max": im.WMax, "stages": im.Stages,
			"area": im.Area, "delay": im.Delay, "params": "size", "source": "",
		})
		if err != nil {
			return nil, err
		}
		for a, attr := range []string{"area", "delay"} {
			err := store.Upsert(icdb.TableEstimators, relstore.Row{"impl": im.Name, "attr": attr, "expr": im.estExprs[a]})
			if err != nil {
				return nil, err
			}
		}
		m.addImpl(im)
	}
	points := make([]mPoint, n)
	for i := range points {
		p := synthPoint(r, i, n)
		err := store.Upsert(icdb.TableExplorations, relstore.Row{
			"generator": p.Gen, "bindings": p.Bindings, "component": p.Comp,
			"width": p.Width, "area": p.Area, "delay": p.Delay,
		})
		if err != nil {
			return nil, err
		}
		points[i] = p
	}
	m.loadPoints(points)
	db.InvalidateCaches()
	return &catalog{store: store, db: db, model: m, rows: 4 * n}, nil
}

// designSource is the expand workload's design: glue logic sized by the
// "size" parameter around two subcomponents called by builtin
// implementation name, so no synthetic row can win the resolution and
// every expansion records two instance uses.
func designSource() string {
	bits := func(sig string, n int) string {
		parts := make([]string, n)
		for i := range parts {
			parts[i] = fmt.Sprintf("%s[%d]", sig, i)
		}
		return strings.Join(parts, ", ")
	}
	return `
NAME: bench_top;
PARAMETER: size;
VARIABLE: i;
INORDER: D[size], A[4], B[4], load, en, clk;
OUTORDER: Q[size], R[4], C[4];
{
  #for(i = 0; i < size; i++)
    Q[i] = (D[i]*load + Q[i]*!load) @ (~r clk);
  #reg_d(4, ` + bits("A", 4) + `, load, clk, ` + bits("R", 4) + `);
  #cnt_up(4, ` + bits("B", 4) + `, load, en, clk, ` + bits("C", 4) + `);
}
`
}

// designFile is the name the design is saved under in the -designs
// directory.
const designFile = "bench_top.iif"

package main

// workload.go defines the four workloads and turns a seed into each
// connection's command stream. Read commands are drawn from pools built
// at set-up, with the reply size the model predicts; write commands are
// made on the fly and never repeat an estimate.

import (
	"fmt"
	"math"
	"math/rand"

	"icdb/internal/genus"
)

// opKind names a command shape; the per-kind latency metrics are
// "op.<kind>_p50_us".
type opKind int

const (
	kFindTopK opKind = iota
	kFindWidth
	kFindType
	kDescribe
	kFindAll
	kFindSorted
	kShowImpls
	kPareto
	kEstimate
	kGenerate
	kExplore
	kExpand
	numKinds
)

var kindNames = [numKinds]string{
	"find_topk", "find_width", "find_type", "describe",
	"find_all", "find_sorted", "show_impls", "pareto",
	"estimate", "generate", "explore", "expand",
}

func (k opKind) String() string { return kindNames[k] }

func (k opKind) isWrite() bool { return k >= kEstimate }

func (k opKind) isFind() bool { return k <= kFindSorted && k != kDescribe }

// op is one command with what the harness needs to check its reply.
type op struct {
	kind opKind
	cmd  string
	// rows is the reply's row count when the model fixes it ahead of
	// time, -1 when it depends on writes the run has made.
	rows int
	// unordered marks a reply whose rows arrive in unspecified order.
	unordered bool
	// expect renders the expected reply from the model; a write's expect
	// also applies the write, so it runs once, when the reply is in.
	expect func(m *model) []string
}

// share is one entry of a traffic mix.
type share struct {
	kind opKind
	pct  int
}

// workload is one row of the benchmark's workload table.
type workload struct {
	name string
	why  string
	big  bool // the raw 400k-row catalog instead of the registered 10k one
	// journal runs the server with -journal -fsync always -compact-at 131072
	// on its own copy of the catalog.
	journal bool
	mix     []share
	// bootShare is the part of the measured time spent on timed
	// fresh-process boots; the rest drives the mix.
	bootShare float64
	// traceOps is the fixed command count of each traced pass.
	traceOps int
}

var hotMix = []share{{kFindTopK, 40}, {kFindWidth, 25}, {kFindType, 20}, {kDescribe, 15}}

var workloads = []*workload{
	{
		name:     "find-hot",
		why:      "binder inner loop: small ranked finds and describes on a catalog that fits every cache; parse, compile and rank dominate",
		mix:      hotMix,
		traceOps: 2000,
	},
	{
		name: "stream-wide",
		why:  "replies of 100 to 10000 rows: row formatting, frame write and flush and client decode dominate, parse is noise",
		// The issue's 40/20/20/20 put the median command in the thin upper
		// tail of the finds, just below the gap to the listings, where ten
		// runs spread up to 22 %; with the listings at 60 % it falls inside
		// them.
		mix:      []share{{kFindAll, 30}, {kFindSorted, 10}, {kShowImpls, 30}, {kPareto, 30}},
		traceOps: 60,
	},
	{
		name:     "write-durable",
		why:      "half writes under -journal -fsync always with 128 KiB compaction: append, fsync and compaction block the reply; ends with kill -9 and recovery",
		journal:  true,
		mix:      []share{{kEstimate, 35}, {kGenerate, 5}, {kExplore, 5}, {kExpand, 5}, {kFindTopK, 40}, {kPareto, 10}},
		traceOps: 1500,
	},
	{
		name:      "cold-open",
		why:       "400k-row snapshot that starts with nothing hydrated: repeated fresh-process boots time directory decode, hydration and index build, then the hot mix runs at that size",
		big:       true,
		mix:       hotMix,
		bootShare: 0.5,
		traceOps:  300,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// sizes fixes how large the catalogs are; tests shrink it.
type sizes struct {
	small int // implementations in the registered catalog
	large int // implementation rows in the raw catalog
}

var fullSizes = sizes{small: 10_000, large: 100_000}

func (w *workload) catalogSize(sz sizes) int {
	if w.big {
		return sz.large
	}
	return sz.small
}

// zipfCDF is the fixed Zipf(1.1) over genus.AllFunctions(): rank is the
// function's position in that list, whatever the seed.
var zipfCDF = func() []float64 {
	n := len(allFunctions)
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), 1.1)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}()

// allFunctions is genus.AllFunctions(), which builds its slice anew on
// every call, taken once.
var allFunctions = genus.AllFunctions()

// zipfIndex draws a function's index in allFunctions.
func zipfIndex(r *rand.Rand) int {
	u := r.Float64()
	for i, c := range zipfCDF {
		if u <= c {
			return i
		}
	}
	return len(zipfCDF) - 1
}

// companion picks a second function some component type carries beside
// fn, so a two-function find is not empty by construction; ok is false
// when fn only ever stands alone.
func companion(r *rand.Rand, fn genus.Function) (genus.Function, bool) {
	var cands []genus.Function
	for _, ct := range genus.ComponentsForFunctions(fn) {
		for _, g := range genus.Functions(ct) {
			if g != fn {
				cands = append(cands, g)
			}
		}
	}
	if len(cands) == 0 {
		return "", false
	}
	return cands[r.Intn(len(cands))], true
}

// pools holds a workload's pre-drawn read commands. They are shared by
// every connection and read-only once built.
type pools struct {
	byKind [numKinds][]op
}

const (
	poolFindWidth = 512
	poolFindType  = 256
)

func findOp(m *model, kind opKind, f *findSpec, dynamic bool) op {
	o := op{kind: kind, cmd: f.text(), unordered: !f.ranked(), rows: m.findRows(f)}
	o.expect = func(m *model) []string { return m.find(f) }
	if dynamic && (f.Limit == 0 || o.rows < f.Limit) {
		// Generated implementations can join this answer later.
		o.rows = -1
	}
	return o
}

// buildPools draws w's read pools from the seed and sizes each reply with the
// model. Every kind gets a pool, the ones outside w's mix for the tail
// probes. With a workload that writes, a reply that later writes can
// change gets rows -1, and "pareto" is the bounded frontier question a
// tool asks between writes instead of the full dominated listing.
func buildPools(w *workload, m *model, seed int64) *pools {
	p := &pools{}
	r := rand.New(rand.NewSource(seed*31 + 7))
	dynamic := w.journal
	for _, fn := range allFunctions {
		fns := []genus.Function{fn}
		p.byKind[kFindTopK] = append(p.byKind[kFindTopK], findOp(m, kFindTopK, &findSpec{Fns: fns, OrderBy: "cost", Limit: 5}, dynamic))
		p.byKind[kFindAll] = append(p.byKind[kFindAll], findOp(m, kFindAll, &findSpec{Fns: fns}, dynamic))
		p.byKind[kFindSorted] = append(p.byKind[kFindSorted], findOp(m, kFindSorted, &findSpec{Fns: fns, OrderBy: "area"}, dynamic))
	}
	for i := 0; i < poolFindWidth; i++ {
		f := &findSpec{Fns: []genus.Function{allFunctions[zipfIndex(r)]}, OrderBy: "delay", Limit: 10}
		if r.Intn(10) < 3 {
			if g, ok := companion(r, f.Fns[0]); ok {
				f.Fns = append(f.Fns, g)
			}
		}
		f.At = 4 + r.Intn(61)
		f.Conds = []cond{{"area", "<=", float64(f.At * (10 + r.Intn(60)))}}
		p.byKind[kFindWidth] = append(p.byKind[kFindWidth], findOp(m, kFindWidth, f, dynamic))
	}
	cts := genus.AllComponentTypes()
	for i := 0; i < poolFindType; i++ {
		f := &findSpec{Type: string(cts[r.Intn(len(cts))]), Limit: 20,
			Conds: []cond{{"delay", "<=", float64(5 + r.Intn(45))}}}
		p.byKind[kFindType] = append(p.byKind[kFindType], findOp(m, kFindType, f, dynamic))
	}
	showImpls := op{kind: kShowImpls, cmd: "show impls", rows: len(m.impls),
		expect: func(m *model) []string { return m.showImpls() }}
	pareto := op{kind: kPareto, cmd: "find pareto dominated", rows: len(m.points),
		expect: func(m *model) []string { return m.pareto(true, 0) }}
	if dynamic {
		// Two connections generate implementations concurrently, so the
		// listing's tail is in the server's order, not the model's.
		showImpls.rows, showImpls.unordered = -1, true
		pareto = op{kind: kPareto, cmd: "find pareto limit 10", rows: -1,
			expect: func(m *model) []string { return m.pareto(false, 10) }}
	}
	p.byKind[kShowImpls] = []op{showImpls}
	p.byKind[kPareto] = []op{pareto}
	return p
}

// stream is one connection's deterministic command sequence over a site.
type stream struct {
	*site
	r       *rand.Rand
	conn    int
	conns   int
	nEst    int   // estimates issued on this connection
	estBase int   // first estimate index this stream may use
	cum     []int // cumulative mix percentages
}

func newStream(s *site, seed int64, conn, conns int) *stream {
	st := &stream{site: s, conn: conn, conns: conns,
		r: rand.New(rand.NewSource(seed*1_000_003 + int64(conn)*7919 + 17))}
	total := 0
	for _, sh := range s.w.mix {
		total += sh.pct
		st.cum = append(st.cum, total)
	}
	return st
}

// builtinCount is how many implementations icdb.Open seeds ahead of the
// synthetic ones in the model's insertion order.
const builtinCount = 6

func (s *stream) synth(i int) *mImpl { return s.model.impls[builtinCount+i] }

func (s *stream) next() op {
	u := s.r.Intn(s.cum[len(s.cum)-1])
	kind := s.w.mix[len(s.w.mix)-1].kind
	for i, c := range s.cum {
		if u < c {
			kind = s.w.mix[i].kind
			break
		}
	}
	return s.make(kind)
}

// make draws one command of the given kind.
func (s *stream) make(kind opKind) op {
	r := s.r
	switch kind {
	case kFindTopK, kFindAll, kFindSorted:
		// The pool holds one command per function, in allFunctions order.
		return s.pools.byKind[kind][zipfIndex(r)]
	case kFindWidth, kFindType, kShowImpls, kPareto:
		pool := s.pools.byKind[kind]
		return pool[r.Intn(len(pool))]
	case kDescribe:
		// 80 % of describes go to the hot fifth of the catalog.
		i := r.Intn(s.nSynth)
		if r.Intn(10) < 8 {
			i -= i % 5
		}
		name := s.synth(i).Name
		return op{kind: kDescribe, cmd: "describe " + name, rows: s.model.describeRows(name),
			expect: func(m *model) []string { return m.describe(name) }}
	case kEstimate:
		return s.estimate()
	case kGenerate:
		g := s.generator()
		n := 1 + r.Intn(128)
		return op{kind: kGenerate, cmd: fmt.Sprintf("generate %s size=%d", g.Name, n), rows: 1,
			expect: func(m *model) []string { line, _ := m.generate(g, n); return []string{line} }}
	case kExplore:
		g := s.generator()
		step, pts := 1+r.Intn(4), 2+r.Intn(5)
		lo := 1 + r.Intn(128-step*(pts-1))
		hi := lo + step*(pts-1)
		return op{kind: kExplore, cmd: fmt.Sprintf("explore %s width %d..%d step %d", g.Name, lo, hi, step), rows: pts + 1,
			expect: func(m *model) []string { lines, _ := m.explore(g, lo, hi, step); return lines }}
	case kExpand:
		n := 2 + r.Intn(15)
		want := splitLines(s.expand[n])
		return op{kind: kExpand, cmd: fmt.Sprintf("expand %s size=%d", designFile, n), rows: len(want),
			expect: func(*model) []string { return want }}
	}
	panic("bench: no generator for op kind " + kind.String())
}

// generator picks the builtin generator this connection writes through.
// With several connections each owns one generator, so whether a
// generate answers "registered" or "reused" never depends on which
// connection the server served first.
func (s *stream) generator() *mGen {
	if s.conns > 1 {
		return builtinGens[genNames[s.conn%len(genNames)]]
	}
	return builtinGens[genNames[s.r.Intn(len(genNames))]]
}

// estimate returns the connection's next never-repeated (impl, width)
// pair: connection c owns the indices c, c+conns, c+2·conns, …; index k
// names implementation k·7919 mod n (a permutation, 7919 being prime to
// the catalog sizes used) at width WMin + k/n.
func (s *stream) estimate() op {
	for {
		k := s.estBase + s.conn + s.conns*s.nEst
		s.nEst++
		im := s.synth(k * 7919 % s.nSynth)
		w := im.WMin + k/s.nSynth
		if k/s.nSynth > 128 {
			panic("bench: estimate stream exhausted every (impl, width) pair; the run is too long for this catalog")
		}
		if w > im.WMax {
			continue
		}
		name := im.Name
		return op{kind: kEstimate, cmd: fmt.Sprintf("estimate %s width=%d", name, w), rows: 1,
			expect: func(m *model) []string { line, _ := m.estimate(name, w); return []string{line} }}
	}
}

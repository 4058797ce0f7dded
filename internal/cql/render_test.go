package cql

// Differential test of the append renderers (render.go) against the fmt
// format strings they replaced. The format strings below are the
// contract: clients and the benchmark's oracle parse these rows.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"icdb/internal/genus"
	"icdb/internal/icdb"
)

// renderFloats are the values fmt's %g treats specially, plus both
// exponent forms and negatives; random draws fill in the rest.
var renderFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 2.25, 48, 1e20, 1e21, 1e-4, 1e-5, 123456789, 1.5e300, 5e-324,
	-3.75e-9, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(), 1.0 / 3, 100000, 1e6,
}

// renderNames covers empty, short, exactly-at-pad, wider-than-pad and
// multi-byte names (fmt pads by rune count, not bytes), and invalid
// UTF-8.
var renderNames = []string{
	"", "a", "reg_d", "exactly12chr", "exactly_eighteen_c", "a_name_wider_than_every_pad_in_any_row",
	"zähler", "加法器", "ΔΣ_mod", "n\xffme", "gen_cnt_size_24", "twenty_four_runes_long__",
}

func randFloat(rng *rand.Rand) float64 {
	switch rng.Intn(4) {
	case 0:
		return renderFloats[rng.Intn(len(renderFloats))]
	case 1:
		return float64(rng.Intn(2000) - 1000)
	case 2:
		return math.Float64frombits(rng.Uint64()) // any bit pattern, NaNs included
	}
	return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(60)-30))
}

func randName(rng *rand.Rand) string { return renderNames[rng.Intn(len(renderNames))] }

func randInt(rng *rand.Rand) int {
	switch rng.Intn(4) {
	case 0:
		return rng.Intn(10)
	case 1:
		return rng.Intn(2000) - 1000
	case 2:
		return rng.Int() - rng.Int()
	}
	return rng.Intn(200)
}

func randFunctions(rng *rand.Rand) []genus.Function {
	all := genus.AllFunctions()
	fns := make([]genus.Function, rng.Intn(4))
	for i := range fns {
		fns[i] = all[rng.Intn(len(all))]
	}
	if rng.Intn(8) == 0 { // a row written around RegisterImpl: not upper case
		fns = append(fns, "storage")
	}
	return fns
}

func TestRenderMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var buf []byte
	check := func(kind string, got []byte, want string) {
		t.Helper()
		if string(got) != want {
			t.Fatalf("%s row:\n got %q\nwant %q", kind, got, want)
		}
	}
	for i := 0; i < 4000; i++ {
		im := icdb.Impl{
			Name: randName(rng), Component: genus.ComponentType(randName(rng)), Style: randName(rng),
			Functions: randFunctions(rng), WidthMin: randInt(rng), WidthMax: randInt(rng),
			Area: randFloat(rng), Delay: randFloat(rng),
		}
		c := icdb.Candidate{Impl: im, Area: randFloat(rng), Delay: randFloat(rng), Cost: randFloat(rng)}
		n := randInt(rng)
		buf = appendFindRow(buf[:0], n, &c)
		check("find", buf, fmt.Sprintf("%d. %-12s %-18s width %d..%d area %g delay %g cost %g\n",
			n, c.Impl.Name, c.Impl.Component, c.Impl.WidthMin, c.Impl.WidthMax, c.Area, c.Delay, c.Cost))

		buf = appendImplRow(buf[:0], &im)
		check("show impls", buf, fmt.Sprintf("%-12s %-18s %-12s width %d..%d area %g delay %g  %s\n",
			im.Name, im.Component, im.Style, im.WidthMin, im.WidthMax,
			im.Area, im.Delay, genus.FunctionSetKey(im.Functions)))

		p := icdb.ParetoPoint{
			Exploration: icdb.Exploration{
				Generator: randName(rng), Bindings: randName(rng), Component: genus.ComponentType(randName(rng)),
				Width: randInt(rng), Area: randFloat(rng), Delay: randFloat(rng),
			},
			Cost: randFloat(rng),
		}
		buf = appendParetoRow(buf[:0], n, &p)
		check("frontier", buf, fmt.Sprintf("%d. %-24s %-18s width %3d area %g delay %g cost %g\n",
			n, p.PointID(), p.Component, p.Width, p.Area, p.Delay, p.Cost))

		p.Dominated, p.DominatedBy, p.DArea, p.DDelay = true, randName(rng), randFloat(rng), randFloat(rng)
		buf = appendParetoRow(buf[:0], n, &p)
		check("dominated", buf, fmt.Sprintf("   %-24s %-18s width %3d area %g delay %g cost %g  dominated by %s (Δarea %g, Δdelay %g)\n",
			p.PointID(), p.Component, p.Width, p.Area, p.Delay, p.Cost, p.DominatedBy, p.DArea, p.DDelay))

		e := &p.Exploration
		buf = appendExplorationRow(buf[:0], e)
		check("show explorations", buf, fmt.Sprintf("%-24s %-18s width %3d area %g delay %g\n",
			e.PointID(), e.Component, e.Width, e.Area, e.Delay))

		pt := icdb.ExplorePoint{Width: randInt(rng), Area: randFloat(rng), Delay: randFloat(rng), Cost: randFloat(rng)}
		buf = appendExploreRow(buf[:0], &pt)
		check("explore", buf, fmt.Sprintf("width %3d: area %g delay %g cost %g\n", pt.Width, pt.Area, pt.Delay, pt.Cost))
		pt.Impl, pt.Reused = randName(rng)+"x", rng.Intn(2) == 0
		verb := "registered"
		if pt.Reused {
			verb = "reused"
		}
		buf = appendExploreRow(buf[:0], &pt)
		check("explore materialize", buf, fmt.Sprintf("width %3d: area %g delay %g cost %g  %s %s\n",
			pt.Width, pt.Area, pt.Delay, pt.Cost, verb, pt.Impl))
	}
}

// TestRenderRowsDoNotAllocate pins the point of the renderers: a row in
// canonical form costs no allocation once the buffer has grown.
func TestRenderRowsDoNotAllocate(t *testing.T) {
	im := icdb.Impl{Name: "bulk_0001", Component: genus.CompRegister, Style: "dff",
		Functions: []genus.Function{genus.FuncLOAD, genus.FuncSTORAGE, genus.FuncSTORE},
		WidthMin:  1, WidthMax: 64, Area: 6.5, Delay: 1.25}
	c := icdb.Candidate{Impl: im, Area: 6.5, Delay: 1.25, Cost: 7.75}
	p := icdb.ParetoPoint{Exploration: icdb.Exploration{Generator: "gen_cnt", Bindings: "size=16",
		Component: genus.CompCounter, Width: 16, Area: 192, Delay: 2.5},
		Cost: 194.5, Dominated: true, DominatedBy: "gen_cnt[size=4]", DArea: 144, DDelay: 0.25}
	buf := make([]byte, 0, 512)
	if n := testing.AllocsPerRun(100, func() {
		buf = appendFindRow(buf[:0], 7, &c)
		buf = appendImplRow(buf[:0], &im)
		buf = appendParetoRow(buf[:0], 7, &p)
	}); n != 0 {
		t.Fatalf("rendering three rows allocated %v times, want 0", n)
	}
}

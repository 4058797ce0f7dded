package icdb

// compileExpr against its reference, the interpreter (evalAttr): the
// compiled form must produce math.Float64bits-identical values and
// string-identical errors — including which error wins under
// short-circuit — over every node the float domain accepts or rejects.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"icdb/internal/iif"
)

// exprGen draws random expression trees directly as syntax, so forms the
// parser would also build (operators, references, literals) sit next to
// ones only a tree can hold (an Async node, a nil operand).
type exprGen struct {
	r   *rand.Rand
	pos int
}

func (g *exprGen) nextPos() iif.Pos {
	g.pos++
	return iif.Pos{Line: 1 + g.pos/40, Col: 1 + g.pos%40}
}

var (
	genNames  = append(slotNames[:], "bogus", "size", "cost")
	genBinary = []iif.BinaryOp{
		iif.BOr, iif.BAnd, iif.BMinus, iif.BDiv, iif.BMod, iif.BPow,
		iif.BEq, iif.BNeq, iif.BLt, iif.BGt, iif.BLeq, iif.BGeq, iif.BLAnd, iif.BLOr,
	}
	genBadBinary = []iif.BinaryOp{iif.BXor, iif.BXnor, iif.BAt, iif.BDelay, iif.BTri, iif.BWireOr}
	genBadUnary  = []iif.UnaryOp{
		iif.UBuf, iif.USchmitt, iif.URise, iif.UFall, iif.UHigh, iif.ULow,
		iif.UPreInc, iif.UPreDec, iif.UPostInc, iif.UPostDec,
	}
)

func (g *exprGen) expr(depth int) iif.Expr {
	r := g.r
	if depth <= 0 || r.Intn(4) == 0 {
		switch r.Intn(10) {
		case 0, 1, 2:
			return &iif.IntLit{V: r.Intn(7) - 2, Pos: g.nextPos()}
		case 3:
			return &iif.IntLit{V: r.Intn(1 << 20), Pos: g.nextPos()}
		case 4:
			// The rare error leaves: an indexed reference (its index is
			// never evaluated) and a form outside the domain.
			if r.Intn(2) == 0 {
				return &iif.Ref{Name: genNames[r.Intn(len(genNames))], Index: []iif.Expr{g.expr(0)}, Pos: g.nextPos()}
			}
			return &iif.Async{X: g.expr(0), Pos: g.nextPos()}
		default:
			return &iif.Ref{Name: genNames[r.Intn(len(genNames))], Pos: g.nextPos()}
		}
	}
	switch r.Intn(12) {
	case 0:
		return &iif.Unary{Op: iif.UNeg, X: g.expr(depth - 1), Pos: g.nextPos()}
	case 1:
		return &iif.Unary{Op: iif.UNot, X: g.expr(depth - 1), Pos: g.nextPos()}
	case 2:
		if r.Intn(3) == 0 {
			return &iif.Unary{Op: genBadUnary[r.Intn(len(genBadUnary))], X: g.expr(depth - 1), Pos: g.nextPos()}
		}
		return &iif.Binary{Op: genBadBinary[r.Intn(len(genBadBinary))], X: g.expr(depth - 1), Y: g.expr(depth - 1), Pos: g.nextPos()}
	default:
		return &iif.Binary{Op: genBinary[r.Intn(len(genBinary))], X: g.expr(depth - 1), Y: g.expr(depth - 1), Pos: g.nextPos()}
	}
}

// slotValues are the attribute values the random vectors draw from:
// zeros of both signs for the division and short-circuit edges, fractions
// literals cannot spell, and the non-finite values an Attrs map may hold.
var slotValues = []float64{
	0, math.Copysign(0, -1), 1, -1, 2, 3, 8, 64, 0.5, -2.25, 10.5, 1e9, 1e300,
	math.Inf(1), math.Inf(-1), math.NaN(),
}

func (g *exprGen) slots() slots {
	var s slots
	for i := range s.v {
		s.v[i] = slotValues[g.r.Intn(len(slotValues))]
	}
	switch g.r.Intn(4) {
	case 0: // a query without a width point
		s.have = haveImpl
	case 1: // any subset: what the Attrs adapter may be handed
		s.have = uint8(g.r.Intn(haveAll + 1))
	default: // at width
		s.have = haveAll
	}
	return s
}

// attrsOf is the map the interpreter sees for slot vector s.
func attrsOf(s *slots) Attrs {
	a := Attrs{}
	for i, n := range slotNames {
		if s.have&(1<<i) != 0 {
			a[n] = s.v[i]
		}
	}
	return a
}

// checkSame holds one compiled evaluation to the interpreter's.
func checkSame(t *testing.T, what string, e iif.Expr, f slotFn, s *slots) {
	t.Helper()
	got, gerr := f(s)
	want, werr := evalAttr(e, attrsOf(s))
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s over %v (have %06b): compiled %v (%#x), interpreted %v (%#x)",
			what, s.v, s.have, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
		t.Fatalf("%s over %v (have %06b): compiled error %v, interpreted error %v", what, s.v, s.have, gerr, werr)
	}
}

func TestCompiledExprMatchesInterpreter(t *testing.T) {
	g := &exprGen{r: rand.New(rand.NewSource(26))}
	const trees, vectors = 20000, 4
	errs, oks := 0, 0
	for i := 0; i < trees; i++ {
		g.pos = 0
		e := g.expr(1 + g.r.Intn(5))
		f := compileExpr(e)
		for j := 0; j < vectors; j++ {
			s := g.slots()
			checkSame(t, iif.ExprString(e), e, f, &s)
			if _, err := f(&s); err != nil {
				errs++
			} else {
				oks++
			}
		}
	}
	// The generator must exercise both outcomes heavily, or the test
	// proves little.
	if errs < trees/2 || oks < trees/2 {
		t.Fatalf("generator is lopsided: %d error evaluations, %d clean", errs, oks)
	}
}

// TestCompiledExprNilAndSlotsOf pins the two edges the random trees do
// not reach: a nil expression, and the Attrs adapter ignoring keys
// outside the vocabulary while keeping absent ones absent.
func TestCompiledExprNilAndSlotsOf(t *testing.T) {
	s := slots{have: haveImpl}
	checkSame(t, "nil", nil, compileExpr(nil), &s)

	got := slotsOf(Attrs{"area": 3, "width": 8, "size": 99})
	if got.have != 1<<slotArea|1<<slotWidth || got.v[slotArea] != 3 || got.v[slotWidth] != 8 {
		t.Fatalf("slotsOf = %+v", got)
	}
	c := mustWhere(t, "delay > 0")
	_, err := c.Accept(Attrs{"area": 3, "width": 8, "size": 99})
	want := `icdb: constraint "delay > 0": 1:1: unknown attribute "delay" (have [area width])`
	if err == nil || err.Error() != want {
		t.Fatalf("Accept error = %v, want %s", err, want)
	}
}

// fuzzSeedExprs are the estimator and constraint sources the tree
// carries: the builtin library's, the builtin generators', bench/gen.go's,
// and one of each error class.
var fuzzSeedExprs = []string{
	"area * width", "delay", "delay * width",
	"12 * width", "2 + width / 16", "10 * width", "6 + width",
	"width_min <= 8 && width_max >= 8", "area + delay < 60 && stages >= 1",
	"(0-8) ** (1/2)", "7 % 2", "1/0", "1 || 1/0", "0 && bogus", "bogus || 1",
	"area[1] > 0", "++area", "area--", "~b area", "area ~d 2", "a ~a(1/b)",
	"!stages", "-(-width)", "width == 8 != 0",
}

func FuzzCompiledExpr(f *testing.F) {
	for i, src := range fuzzSeedExprs {
		f.Add(src, 1.0, 64.0, float64(i%4), 10.5, 4.0, 8.0, i%3 != 0)
	}
	f.Fuzz(func(t *testing.T, src string, wmin, wmax, stages, area, delay, width float64, hasWidth bool) {
		if len(src) > 1<<10 {
			t.Skip("deeply nested input recurses the parser, not the compiler")
		}
		e, err := iif.ParseExpr(src)
		if err != nil {
			t.Skip()
		}
		s := slots{have: haveImpl}
		s.v = [numSlots]float64{
			slotWidthMin: wmin, slotWidthMax: wmax, slotStages: stages,
			slotArea: area, slotDelay: delay, slotWidth: width,
		}
		if hasWidth {
			s.have |= 1 << slotWidth
		}
		checkSame(t, fmt.Sprintf("%q", src), e, compileExpr(e), &s)
	})
}

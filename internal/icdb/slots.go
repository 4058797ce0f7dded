package icdb

// The slot vector and the expression compiler. Every expression the
// engine evaluates per candidate — estimator expressions, Where
// constraints — is compiled once into a closure tree over a fixed
// six-slot attribute vector, with attribute names resolved to slot
// indexes at compile time. The compiled form is the float64 domain of
// iif.EvalExpr (see evalAttr) with the interpretation taken out:
// identical values, identical errors, identical evaluation order.

import (
	"fmt"
	"math"
	"sort"

	"icdb/internal/iif"
)

// The attribute slots, in slotNames order. The first five are an
// implementation's own attributes; width is the query's evaluation point
// and is only present at a width point (and on explored design points).
const (
	slotWidthMin = iota
	slotWidthMax
	slotStages
	slotArea
	slotDelay
	slotWidth
	numSlots
)

var slotNames = [numSlots]string{"width_min", "width_max", "stages", "area", "delay", "width"}

// Presence masks: the five implementation attributes, and all six.
const (
	haveImpl = 1<<slotWidth - 1
	haveAll  = 1<<numSlots - 1
)

// slotOf resolves an attribute name to its slot, -1 when the name is
// outside the vocabulary.
func slotOf(name string) int {
	for i, n := range slotNames {
		if n == name {
			return i
		}
	}
	return -1
}

// slots is the attribute environment of one candidate: the six values
// plus a presence mask (bit i set when slot i holds an attribute). The
// query paths always fill the five implementation slots and add width at
// a width point; the mask is per slot so the Attrs adapter (slotsOf) can
// describe any map.
type slots struct {
	v    [numSlots]float64
	have uint8
}

// slotsOf converts an attribute map to the slot vector. Keys outside the
// six-attribute vocabulary are not representable and are ignored.
func slotsOf(a Attrs) slots {
	var s slots
	for i, n := range slotNames {
		if v, ok := a[n]; ok {
			s.v[i] = v
			s.have |= 1 << i
		}
	}
	return s
}

// fillEntry loads a posting-list entry's five attributes, leaving only
// those present.
func (s *slots) fillEntry(e *implEntry) {
	*(*[slotWidth]float64)(s.v[:slotWidth]) = e.a
	s.have = haveImpl
}

// setWidth adds the width evaluation point.
func (s *slots) setWidth(w int) {
	s.v[slotWidth] = float64(w)
	s.have |= 1 << slotWidth
}

// names lists the attributes present, sorted — the "(have [...])" part
// of an unknown-attribute diagnostic.
func (s *slots) names() []string {
	names := make([]string, 0, numSlots)
	for i, n := range slotNames {
		if s.have&(1<<i) != 0 {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// The diagnostics of the attribute-expression domain, shared by the
// compiler below and the interpreter binding (attrEnv) so the two cannot
// drift apart.

func errIndexedAttr(r *iif.Ref) error {
	return fmt.Errorf("%s: attribute %q cannot be indexed", r.Pos, r.Name)
}

func errUnknownAttr(r *iif.Ref, have []string) error {
	return fmt.Errorf("%s: unknown attribute %q (have %v)", r.Pos, r.Name, have)
}

func errBadOp(pos iif.Pos, op fmt.Stringer) error {
	return fmt.Errorf("%s: operator %s not valid in a constraint", pos, op)
}

func errBadExpr(e iif.Expr) error {
	return fmt.Errorf("expression form %T not valid in a constraint", e)
}

// slotFn is one compiled expression: evaluate over a slot vector.
type slotFn func(*slots) (float64, error)

func failFn(err error) slotFn {
	return func(*slots) (float64, error) { return 0, err }
}

// compileExpr compiles e for evaluation over slots. Compilation never
// fails: whatever the interpreter would reject while evaluating a node
// (an unknown or indexed attribute, an operator outside the domain)
// compiles to a node that raises the same error if — and only if — a
// candidate's evaluation reaches it, so short-circuiting hides exactly
// the errors it hid before. Errors that do not depend on the candidate
// are built once, here.
func compileExpr(e iif.Expr) slotFn {
	switch x := e.(type) {
	case *iif.IntLit:
		v := float64(x.V)
		return func(*slots) (float64, error) { return v, nil }

	case *iif.Ref:
		if len(x.Index) != 0 {
			return failFn(errIndexedAttr(x))
		}
		i := slotOf(x.Name)
		if i < 0 {
			return func(s *slots) (float64, error) { return 0, errUnknownAttr(x, s.names()) }
		}
		bit := uint8(1) << i
		return func(s *slots) (float64, error) {
			if s.have&bit == 0 {
				return 0, errUnknownAttr(x, s.names())
			}
			return s.v[i], nil
		}

	case *iif.Unary:
		switch x.Op {
		case iif.UNeg:
			f := compileExpr(x.X)
			return func(s *slots) (float64, error) {
				v, err := f(s)
				return -v, err
			}
		case iif.UNot:
			f := compileExpr(x.X)
			return func(s *slots) (float64, error) {
				v, err := f(s)
				if err != nil {
					return 0, err
				}
				return b2f(v == 0), nil
			}
		}
		// ++/-- and the hardware operators: rejected without evaluating
		// the operand.
		return failFn(errBadOp(x.Pos, x.Op))

	case *iif.Binary:
		return compileBinary(x)
	}
	return failFn(errBadExpr(e))
}

// compileBinary compiles one binary node. Both operands are evaluated
// (left first, the right skipped by && and || when the left decides)
// before an operator outside the domain is reported, as in iif.EvalExpr.
func compileBinary(x *iif.Binary) slotFn {
	l, r := compileExpr(x.X), compileExpr(x.Y)
	op, pos := x.Op, x.Pos
	return func(s *slots) (float64, error) {
		a, err := l(s)
		if err != nil {
			return 0, err
		}
		switch op {
		case iif.BLAnd:
			if a == 0 {
				return 0, nil
			}
		case iif.BLOr:
			if a != 0 {
				return 1, nil
			}
		}
		b, err := r(s)
		if err != nil {
			return 0, err
		}
		switch op {
		case iif.BOr:
			return a + b, nil
		case iif.BAnd:
			return a * b, nil
		case iif.BMinus:
			return a - b, nil
		case iif.BDiv:
			if b == 0 {
				return 0, iif.Errf(pos, "division by zero")
			}
			return a / b, nil
		case iif.BMod:
			if b == 0 {
				return 0, iif.Errf(pos, "modulo by zero")
			}
			return math.Mod(a, b), nil
		case iif.BPow:
			return math.Pow(a, b), nil
		case iif.BEq:
			return b2f(a == b), nil
		case iif.BNeq:
			return b2f(a != b), nil
		case iif.BLt:
			return b2f(a < b), nil
		case iif.BGt:
			return b2f(a > b), nil
		case iif.BLeq:
			return b2f(a <= b), nil
		case iif.BGeq:
			return b2f(a >= b), nil
		case iif.BLAnd:
			return b2f(a != 0 && b != 0), nil
		case iif.BLOr:
			return b2f(a != 0 || b != 0), nil
		}
		return 0, errBadOp(pos, op)
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// estProg is one estimator expression, parsed and compiled: the unit the
// DB interns by source text (see DB.progs). Immutable once published.
type estProg struct {
	src string // the source text, which the DB interns it by
	// expr is the parsed form, for GeneratorCost: a generator's
	// expressions range over its own parameter names, an open vocabulary
	// the slot vector cannot hold, so they stay on the interpreter.
	expr iif.Expr
	// eval is expr compiled over the slot vector.
	eval slotFn
}

// slotCmp is one "attribute op value" comparison over a slot: the
// compiled form of AttrCmp and ForWidth. An
// absent slot reads as zero, as a missing map key did.
type slotCmp struct {
	slot uint8
	op   cmpCode
	v    float64
}

type cmpCode uint8

const (
	cmpLE cmpCode = iota
	cmpLT
	cmpGE
	cmpGT
	cmpEQ
	cmpNE
)

func (c slotCmp) holds(s *slots) bool {
	x := s.v[c.slot]
	switch c.op {
	case cmpLE:
		return x <= c.v
	case cmpLT:
		return x < c.v
	case cmpGE:
		return x >= c.v
	case cmpGT:
		return x > c.v
	case cmpEQ:
		return x == c.v
	}
	return x != c.v
}

package cql

// Row rendering for the listings whose replies run to thousands of
// lines: find, find pareto, show impls, show explorations and explore.
// Each row is appended into one buffer the Env reuses (strconv.Append*,
// no fmt, no per-row allocation) and handed to Env.Out in a single
// Write, so a frame-per-line sink receives whole lines. The output is
// byte-for-byte what the fmt format string quoted above each renderer
// produces; render_test.go holds those strings as the differential
// oracle.

import (
	"strconv"
	"unicode/utf8"

	"icdb/internal/genus"
	"icdb/internal/icdb"
)

// writeRow hands one rendered row to the sink and keeps its buffer,
// emptied, as env.row for the next renderer to append to.
func (env *Env) writeRow(b []byte) error {
	env.row = b[:0]
	_, err := env.Out.Write(b)
	return err
}

// appendPad is %-<width>s: s, then spaces up to width runes.
func appendPad(b []byte, s string, width int) []byte {
	b = append(b, s...)
	return appendSpaces(b, width-utf8.RuneCountInString(s))
}

func appendSpaces(b []byte, n int) []byte {
	for ; n > 0; n-- {
		b = append(b, ' ')
	}
	return b
}

// appendInt is %d.
func appendInt(b []byte, v int) []byte { return strconv.AppendInt(b, int64(v), 10) }

// appendInt3 is %3d: right-aligned in three columns, sign included.
func appendInt3(b []byte, v int) []byte {
	var tmp [20]byte
	d := strconv.AppendInt(tmp[:0], int64(v), 10)
	return append(appendSpaces(b, 3-len(d)), d...)
}

// appendG is %g on a float64: the shortest representation that parses
// back to the same value, exponent form for large and small magnitudes.
func appendG(b []byte, f float64) []byte { return strconv.AppendFloat(b, f, 'g', -1, 64) }

// appendPointID is %-24s of e.PointID(), "generator[bindings]", without
// building the string.
func appendPointID(b []byte, e *icdb.Exploration) []byte {
	start := len(b)
	b = append(b, e.Generator...)
	b = append(b, '[')
	b = append(b, e.Bindings...)
	b = append(b, ']')
	return appendSpaces(b, 24-utf8.RuneCount(b[start:]))
}

// appendPointCosts is "%-24s %-18s width %3d area %g delay %g", the
// shared body of pareto and exploration rows.
func appendPointCosts(b []byte, e *icdb.Exploration) []byte {
	b = appendPointID(b, e)
	b = append(b, ' ')
	b = appendPad(b, string(e.Component), 18)
	b = append(b, " width "...)
	b = appendInt3(b, e.Width)
	b = append(b, " area "...)
	b = appendG(b, e.Area)
	b = append(b, " delay "...)
	return appendG(b, e.Delay)
}

// appendFindRow is
// "%d. %-12s %-18s width %d..%d area %g delay %g cost %g\n".
func appendFindRow(b []byte, n int, c *icdb.Candidate) []byte {
	b = appendInt(b, n)
	b = append(b, ". "...)
	b = appendPad(b, c.Impl.Name, 12)
	b = append(b, ' ')
	b = appendPad(b, string(c.Impl.Component), 18)
	b = append(b, " width "...)
	b = appendInt(b, c.Impl.WidthMin)
	b = append(b, ".."...)
	b = appendInt(b, c.Impl.WidthMax)
	b = append(b, " area "...)
	b = appendG(b, c.Area)
	b = append(b, " delay "...)
	b = appendG(b, c.Delay)
	b = append(b, " cost "...)
	b = appendG(b, c.Cost)
	return append(b, '\n')
}

// appendParetoRow is, for a frontier point of rank n,
// "%d. %-24s %-18s width %3d area %g delay %g cost %g\n" and for a
// dominated one
// "   %-24s %-18s width %3d area %g delay %g cost %g  dominated by %s (Δarea %g, Δdelay %g)\n".
func appendParetoRow(b []byte, n int, p *icdb.ParetoPoint) []byte {
	if p.Dominated {
		b = append(b, "   "...)
	} else {
		b = appendInt(b, n)
		b = append(b, ". "...)
	}
	b = appendPointCosts(b, &p.Exploration)
	b = append(b, " cost "...)
	b = appendG(b, p.Cost)
	if p.Dominated {
		b = append(b, "  dominated by "...)
		b = append(b, p.DominatedBy...)
		b = append(b, " (Δarea "...)
		b = appendG(b, p.DArea)
		b = append(b, ", Δdelay "...)
		b = appendG(b, p.DDelay)
		b = append(b, ')')
	}
	return append(b, '\n')
}

// appendImplRow is
// "%-12s %-18s %-12s width %d..%d area %g delay %g  %s\n", the last
// field being genus.FunctionSetKey(im.Functions).
func appendImplRow(b []byte, im *icdb.Impl) []byte {
	b = appendPad(b, im.Name, 12)
	b = append(b, ' ')
	b = appendPad(b, string(im.Component), 18)
	b = append(b, ' ')
	b = appendPad(b, im.Style, 12)
	b = append(b, " width "...)
	b = appendInt(b, im.WidthMin)
	b = append(b, ".."...)
	b = appendInt(b, im.WidthMax)
	b = append(b, " area "...)
	b = appendG(b, im.Area)
	b = append(b, " delay "...)
	b = appendG(b, im.Delay)
	b = append(b, "  "...)
	b = genus.AppendFunctionSetKey(b, im.Functions)
	return append(b, '\n')
}

// appendExplorationRow is "%-24s %-18s width %3d area %g delay %g\n".
func appendExplorationRow(b []byte, e *icdb.Exploration) []byte {
	return append(appendPointCosts(b, e), '\n')
}

// appendExploreRow is "width %3d: area %g delay %g cost %g\n", with
// "  registered <impl>" or "  reused <impl>" before the newline when the
// sweep materialized the point.
func appendExploreRow(b []byte, pt *icdb.ExplorePoint) []byte {
	b = append(b, "width "...)
	b = appendInt3(b, pt.Width)
	b = append(b, ": area "...)
	b = appendG(b, pt.Area)
	b = append(b, " delay "...)
	b = appendG(b, pt.Delay)
	b = append(b, " cost "...)
	b = appendG(b, pt.Cost)
	if pt.Impl != "" {
		if pt.Reused {
			b = append(b, "  reused "...)
		} else {
			b = append(b, "  registered "...)
		}
		b = append(b, pt.Impl...)
	}
	return append(b, '\n')
}

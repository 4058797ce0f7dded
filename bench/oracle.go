package main

// oracle.go answers commands from the model by brute force: every find
// walks every implementation, every frontier question asks of each
// point whether some other point dominates it. The reply lines are
// rendered with format strings written out here, so a change to what
// the server prints is a mismatch, not a silent agreement.

import (
	"fmt"
	"sort"
	"strings"

	"icdb/internal/genus"
)

// cond is one "with attr op value" comparison.
type cond struct {
	Attr string
	Op   string
	Val  float64
}

func (c cond) holds(v float64) bool {
	switch c.Op {
	case "<=":
		return v <= c.Val
	case "<":
		return v < c.Val
	case ">=":
		return v >= c.Val
	case ">":
		return v > c.Val
	case "=":
		return v == c.Val
	}
	return v != c.Val
}

// findSpec is a find command as the oracle understands it.
type findSpec struct {
	Fns     []genus.Function
	Type    string
	Conds   []cond
	At      int
	OrderBy string // "" with Limit 0 means unranked
	Limit   int
}

func (f *findSpec) ranked() bool { return f.OrderBy != "" || f.Limit > 0 }

// text renders the spec as the CQL command the server receives.
func (f *findSpec) text() string {
	var b strings.Builder
	b.WriteString("find component")
	if f.Type != "" {
		b.WriteString(" of type " + f.Type)
	}
	for i, fn := range f.Fns {
		if i == 0 {
			b.WriteString(" executing ")
		} else {
			b.WriteString(" and ")
		}
		b.WriteString(string(fn))
	}
	for i, c := range f.Conds {
		if i == 0 {
			b.WriteString(" with ")
		} else {
			b.WriteString(" and ")
		}
		fmt.Fprintf(&b, "%s %s %g", c.Attr, c.Op, c.Val)
	}
	if f.At > 0 {
		fmt.Fprintf(&b, " at width %d", f.At)
	}
	if f.OrderBy != "" {
		b.WriteString(" order by " + f.OrderBy)
	}
	if f.Limit > 0 {
		fmt.Fprintf(&b, " limit %d", f.Limit)
	}
	return b.String()
}

type scored struct {
	im                *mImpl
	area, delay, cost float64
}

// hits filters the implementations by brute force: every row is
// tested against every clause.
func (m *model) hits(f *findSpec) []scored {
	var mask uint64
	for _, fn := range f.Fns {
		mask |= 1 << m.fnBit[fn]
	}
	var hits []scored
	for _, im := range m.impls {
		if im.fnMask&mask != mask || (f.Type != "" && im.Comp != f.Type) {
			continue
		}
		if f.At > 0 && (f.At < im.WMin || f.At > im.WMax) {
			continue
		}
		area, delay := im.at(f.At)
		ok := true
		for _, c := range f.Conds {
			var v float64
			switch c.Attr {
			case "area":
				v = area
			case "delay":
				v = delay
			case "stages":
				v = float64(im.Stages)
			case "width_min":
				v = float64(im.WMin)
			case "width_max":
				v = float64(im.WMax)
			}
			if !c.holds(v) {
				ok = false
				break
			}
		}
		if ok {
			hits = append(hits, scored{im, area, delay, area + delay})
		}
	}
	return hits
}

// findRows is the row count of the reply find(f) renders.
func (m *model) findRows(f *findSpec) int {
	n := len(m.hits(f))
	if f.Limit > 0 && n > f.Limit {
		n = f.Limit
	}
	return max(n, 1) // an empty answer is the one-line "no matching" reply
}

// find returns the expected reply lines without their "N. " prefix, in
// rank order when the find is ranked (an unranked one streams in
// unspecified order and is compared as a set).
func (m *model) find(f *findSpec) []string {
	hits := m.hits(f)
	if f.ranked() {
		key := func(s scored) float64 {
			switch f.OrderBy {
			case "area":
				return s.area
			case "delay":
				return s.delay
			}
			return s.cost
		}
		sort.Slice(hits, func(i, j int) bool {
			if ki, kj := key(hits[i]), key(hits[j]); ki != kj {
				return ki < kj
			}
			return hits[i].im.Name < hits[j].im.Name
		})
		if f.Limit > 0 && len(hits) > f.Limit {
			hits = hits[:f.Limit]
		}
	}
	lines := make([]string, len(hits))
	for i, s := range hits {
		lines[i] = fmt.Sprintf("%-12s %-18s width %d..%d area %g delay %g cost %g",
			s.im.Name, s.im.Comp, s.im.WMin, s.im.WMax, s.area, s.delay, s.cost)
	}
	if len(lines) == 0 {
		return []string{"no matching implementations"}
	}
	return lines
}

func dominates(a, b *mPoint) bool {
	if a.Area > b.Area || a.Delay > b.Delay {
		return false
	}
	return a.Area < b.Area || a.Delay < b.Delay
}

func pointLess(a, b *mPoint) bool {
	if a.Area != b.Area {
		return a.Area < b.Area
	}
	if a.Delay != b.Delay {
		return a.Delay < b.Delay
	}
	if a.Gen != b.Gen {
		return a.Gen < b.Gen
	}
	return a.Bindings < b.Bindings
}

// pareto returns the expected lines of "find pareto [dominated]
// [limit n]" over every recorded point. A point is on the frontier when
// no other point dominates it. Points are visited cheapest first, so a
// dominator, having no larger area, was visited earlier: the frontier
// found so far is tried first as a cheap witness, and only a point with
// no witness there pays the full scan that proves it non-dominated.
func (m *model) pareto(withDominated bool, limit int) []string {
	pts := m.points
	var frontier []*mPoint
	var lines []string
	for _, p := range pts {
		if limit > 0 && len(lines) >= limit {
			break
		}
		// The reported dominator is the dominating frontier point nearest
		// on the area axis; frontier is in area order, so the last hit
		// with a strictly larger area wins.
		var dom *mPoint
		for _, q := range frontier {
			if dominates(q, p) && (dom == nil || q.Area > dom.Area) {
				dom = q
			}
		}
		if dom == nil {
			for _, q := range pts {
				if q != p && dominates(q, p) {
					dom = q // only if the ordering argument above were wrong
					break
				}
			}
		}
		cost := p.Area + p.Delay
		if dom == nil {
			frontier = append(frontier, p)
			lines = append(lines, fmt.Sprintf("%d. %-24s %-18s width %3d area %g delay %g cost %g",
				len(frontier), p.id(), p.Comp, p.Width, p.Area, p.Delay, cost))
			continue
		}
		if !withDominated {
			continue
		}
		lines = append(lines, fmt.Sprintf("   %-24s %-18s width %3d area %g delay %g cost %g  dominated by %s (Δarea %g, Δdelay %g)",
			p.id(), p.Comp, p.Width, p.Area, p.Delay, cost, dom.id(), p.Area-dom.Area, p.Delay-dom.Delay))
	}
	if len(lines) == 0 {
		return []string{"no explored design points match (run 'explore' or 'generate' first)"}
	}
	return lines
}

func fnKey(fns []genus.Function) string {
	ss := make([]string, len(fns))
	for i, f := range fns {
		ss[i] = strings.ToUpper(string(f))
	}
	sort.Strings(ss)
	return strings.Join(ss, ",")
}

// showImpls returns the expected "show impls" lines in insertion order.
func (m *model) showImpls() []string {
	lines := make([]string, len(m.impls))
	for i, im := range m.impls {
		lines[i] = fmt.Sprintf("%-12s %-18s %-12s width %d..%d area %g delay %g  %s",
			im.Name, im.Comp, im.Style, im.WMin, im.WMax, im.Area, im.Delay, fnKey(im.Fns))
	}
	return lines
}

// showExplorations returns the expected "show explorations" lines,
// sorted by generator, width, then bindings.
func (m *model) showExplorations() []string {
	pts := append([]*mPoint(nil), m.points...)
	sort.Slice(pts, func(i, j int) bool {
		a, b := pts[i], pts[j]
		if a.Gen != b.Gen {
			return a.Gen < b.Gen
		}
		if a.Width != b.Width {
			return a.Width < b.Width
		}
		return a.Bindings < b.Bindings
	})
	lines := make([]string, len(pts))
	for i, p := range pts {
		lines[i] = fmt.Sprintf("%-24s %-18s width %3d area %g delay %g", p.id(), p.Comp, p.Width, p.Area, p.Delay)
	}
	return lines
}

// describe returns the expected "describe <impl>" lines.
func (m *model) describe(name string) []string {
	im := m.byName[name]
	lines := []string{
		"name:      " + im.Name,
		"component: " + im.Comp,
		"style:     " + im.Style,
		"functions: " + fnKey(im.Fns), // stored as the sorted set key, decoded in that order
		fmt.Sprintf("width:     %d..%d bits", im.WMin, im.WMax),
		fmt.Sprintf("stages:    %d", im.Stages),
		fmt.Sprintf("area:      %g (per bit)", im.Area),
		fmt.Sprintf("delay:     %g (per bit)", im.Delay),
		"params:    size",
	}
	for i, attr := range []string{"area", "delay"} {
		if im.estExprs[i] != "" {
			lines = append(lines, fmt.Sprintf("estimator: %s = %s", attr, im.estExprs[i]))
		}
	}
	lines = append(lines, "source:")
	for _, l := range strings.Split(strings.Trim(im.Source, "\n"), "\n") {
		lines = append(lines, "  | "+l)
	}
	return lines
}

// describeRows is len(describe(name)) without rendering the lines.
func (m *model) describeRows(name string) int {
	im := m.byName[name]
	n := 10 + strings.Count(strings.Trim(im.Source, "\n"), "\n") + 1
	for _, e := range im.estExprs {
		if e != "" {
			n++
		}
	}
	return n
}

// estimate applies "estimate <impl> width=w" to the model and returns
// the expected reply line and whether the write was effective.
func (m *model) estimate(name string, w int) (line string, fresh bool) {
	im := m.byName[name]
	area, delay := im.at(w)
	fresh = m.addPoint(mPoint{Gen: name, Bindings: fmt.Sprintf("width=%d", w), Comp: im.Comp, Width: w, Area: area, Delay: delay})
	return fmt.Sprintf("%s at width %d: area %g delay %g cost %g", name, w, area, delay, area+delay), fresh
}

// generate applies "generate g size=n" to the model and returns the
// expected reply line and the number of rows the write added.
func (m *model) generate(g *mGen, n int) (line string, fresh bool) {
	name, fresh := m.generated(g, n)
	im := m.byName[name]
	verb := "reused"
	if fresh {
		verb = "registered"
	}
	return fmt.Sprintf("%s %s: %s %s width %d..%d area %g delay %g (generator %s)",
		verb, name, im.Comp, im.Style, n, n, im.Area, im.Delay, g.Name), fresh
}

// explore applies "explore g width lo..hi step s" to the model and
// returns the expected reply lines and how many points were new.
func (m *model) explore(g *mGen, lo, hi, step int) (lines []string, fresh int) {
	n := 0
	for w := lo; w <= hi; w += step {
		a, d := g.area(float64(w)), g.delay(float64(w))
		if m.addPoint(mPoint{Gen: g.Name, Bindings: fmt.Sprintf("size=%d", w), Comp: g.Comp, Width: w, Area: a, Delay: d}) {
			fresh++
		}
		lines = append(lines, fmt.Sprintf("width %3d: area %g delay %g cost %g", w, a, d, a+d))
		n++
	}
	return append(lines, fmt.Sprintf("explored %d design point(s) of %s", n, g.Name)), fresh
}

// replyDiff compares a reply with the expected lines and describes the
// first difference, or returns "" when they agree. Find replies carry an
// "N. " prefix the expectation leaves out; an unordered reply is
// compared as a multiset.
func replyDiff(o *op, got, want []string) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, want %d", len(got), len(want))
	}
	if o.kind.isFind() && !(len(want) == 1 && want[0] == "no matching implementations") {
		got = append([]string(nil), got...)
		for i, l := range got {
			prefix := fmt.Sprintf("%d. ", i+1)
			if !strings.HasPrefix(l, prefix) {
				return fmt.Sprintf("row %d is %q, want prefix %q", i+1, l, prefix)
			}
			got[i] = l[len(prefix):]
		}
	}
	if o.unordered {
		got, want = append([]string(nil), got...), append([]string(nil), want...)
		sort.Strings(got)
		sort.Strings(want)
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("row %d is %q, want %q", i+1, got[i], want[i])
		}
	}
	return ""
}

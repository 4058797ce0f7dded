package cql

import (
	"reflect"
	"strings"
	"testing"
)

// parseFind parses src and asserts the result is a FindStmt.
func parseFind(t *testing.T, src string) *FindStmt {
	t.Helper()
	stmt, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	f, ok := stmt.(*FindStmt)
	if !ok {
		t.Fatalf("Parse(%q) = %T, want *FindStmt", src, stmt)
	}
	return f
}

// TestParseFindCmd covers the FindCmd production with every clause
// present, in canonical order.
func TestParseFindCmd(t *testing.T) {
	f := parseFind(t, "find component of type Counter executing INC and STORAGE "+
		"with area <= 12.5 and stages = 1 order by delay desc limit 3")
	if f.Target.Text != "component" {
		t.Errorf("Target = %q", f.Target.Text)
	}
	if f.Type == nil || f.Type.Text != "Counter" {
		t.Errorf("Type = %+v", f.Type)
	}
	var fns []string
	for _, w := range f.Executing {
		fns = append(fns, w.Text)
	}
	if !reflect.DeepEqual(fns, []string{"INC", "STORAGE"}) {
		t.Errorf("Executing = %v", fns)
	}
	if len(f.Where) != 2 {
		t.Fatalf("Where = %+v", f.Where)
	}
	if f.Where[0].Attr.Text != "area" || f.Where[0].Op != LE || f.Where[0].Value != 12.5 {
		t.Errorf("Where[0] = %+v", f.Where[0])
	}
	if f.Where[1].Attr.Text != "stages" || f.Where[1].Op != EQ || f.Where[1].Value != 1 || !f.Where[1].ValueIsInt {
		t.Errorf("Where[1] = %+v", f.Where[1])
	}
	if f.OrderBy == nil || f.OrderBy.Key.Text != "delay" || !f.OrderBy.Desc {
		t.Errorf("OrderBy = %+v", f.OrderBy)
	}
	if !f.HasLimit || f.Limit != 3 {
		t.Errorf("Limit = %d (has %v)", f.Limit, f.HasLimit)
	}
}

// TestParseTarget covers the Target production's three synonyms.
func TestParseTarget(t *testing.T) {
	for _, target := range []string{"component", "components", "impls"} {
		f := parseFind(t, "find "+target)
		if !strings.EqualFold(f.Target.Text, target) {
			t.Errorf("Target = %q, want %q", f.Target.Text, target)
		}
	}
}

// TestParseOfType covers the OfType production alone.
func TestParseOfType(t *testing.T) {
	f := parseFind(t, "find component of type Register")
	if f.Type == nil || f.Type.Text != "Register" || f.Type.Col != 24 {
		t.Errorf("Type = %+v", f.Type)
	}
	if f.Executing != nil || f.Where != nil || f.OrderBy != nil || f.HasLimit {
		t.Errorf("unexpected clauses: %+v", f)
	}
}

// TestParseExecuting covers the Executing production: single function,
// "and" lists, and the comma separator.
func TestParseExecuting(t *testing.T) {
	for _, src := range []string{
		"find component executing COUNTER and STORAGE and LOAD",
		"find component executing COUNTER, STORAGE, LOAD",
		"find component executing COUNTER and STORAGE, LOAD",
	} {
		f := parseFind(t, src)
		if len(f.Executing) != 3 || f.Executing[2].Text != "LOAD" {
			t.Errorf("Parse(%q).Executing = %+v", src, f.Executing)
		}
	}
	if f := parseFind(t, "find component executing XOR"); len(f.Executing) != 1 {
		t.Errorf("Executing = %+v", f.Executing)
	}
}

// TestParseWithCond covers the With and Cond productions: every
// comparison operator and the width attribute.
func TestParseWithCond(t *testing.T) {
	ops := []struct {
		src  string
		kind Kind
	}{
		{"<=", LE}, {"<", LT}, {">=", GE}, {">", GT}, {"=", EQ}, {"==", EQ}, {"!=", NE},
	}
	for _, op := range ops {
		f := parseFind(t, "find component with width "+op.src+" 8")
		if len(f.Where) != 1 || f.Where[0].Op != op.kind || f.Where[0].Attr.Text != "width" {
			t.Errorf("with width %s 8: Where = %+v", op.src, f.Where)
		}
	}
	f := parseFind(t, "find component with width_min <= 4 and width_max >= 16")
	if len(f.Where) != 2 || f.Where[0].Attr.Text != "width_min" || f.Where[1].Attr.Text != "width_max" {
		t.Errorf("Where = %+v", f.Where)
	}
}

// TestParseOrderBy covers the OrderBy production: every key, default
// direction, explicit asc, and desc.
func TestParseOrderBy(t *testing.T) {
	for _, key := range []string{"cost", "area", "delay", "stages", "width_min", "width_max"} {
		f := parseFind(t, "find component order by "+key)
		if f.OrderBy == nil || f.OrderBy.Key.Text != key || f.OrderBy.Desc {
			t.Errorf("order by %s: %+v", key, f.OrderBy)
		}
	}
	if f := parseFind(t, "find component order by area asc"); f.OrderBy.Desc {
		t.Error("asc parsed as desc")
	}
	if f := parseFind(t, "find component order by area desc"); !f.OrderBy.Desc {
		t.Error("desc not parsed")
	}
}

// TestParseLimit covers the Limit production.
func TestParseLimit(t *testing.T) {
	f := parseFind(t, "find component limit 5")
	if !f.HasLimit || f.Limit != 5 {
		t.Errorf("Limit = %+v", f)
	}
	f = parseFind(t, "find component limit 0")
	if !f.HasLimit || f.Limit != 0 {
		t.Errorf("limit 0 must parse (explicitly unlimited): %+v", f)
	}
}

// TestParseShowCmd covers the ShowCmd production's three listings.
func TestParseShowCmd(t *testing.T) {
	for _, what := range []string{"impls", "components", "functions"} {
		stmt, err := Parse("show " + what)
		if err != nil {
			t.Fatalf("show %s: %v", what, err)
		}
		s, ok := stmt.(*ShowStmt)
		if !ok || s.What.Text != what {
			t.Errorf("show %s = %+v", what, stmt)
		}
	}
}

// TestParseDescribeCmd covers the DescribeCmd production.
func TestParseDescribeCmd(t *testing.T) {
	stmt, err := Parse("describe reg_d")
	if err != nil {
		t.Fatal(err)
	}
	d, ok := stmt.(*DescribeStmt)
	if !ok || d.Name.Text != "reg_d" || d.Name.Col != 10 {
		t.Errorf("describe = %+v", stmt)
	}
}

// TestParseExpandCmd covers the ExpandCmd production: bare and quoted
// paths, stdin, and parameter bindings.
func TestParseExpandCmd(t *testing.T) {
	stmt, err := Parse(`expand designs/top.iif size=8 n=-2`)
	if err != nil {
		t.Fatal(err)
	}
	e := stmt.(*ExpandStmt)
	if e.Path.Text != "designs/top.iif" {
		t.Errorf("Path = %q", e.Path.Text)
	}
	if len(e.Params) != 2 || e.Params[0].Name.Text != "size" || e.Params[0].Value != 8 ||
		e.Params[1].Name.Text != "n" || e.Params[1].Value != -2 {
		t.Errorf("Params = %+v", e.Params)
	}

	stmt, err = Parse(`expand "my designs/top.iif" size=4`)
	if err != nil {
		t.Fatal(err)
	}
	if e := stmt.(*ExpandStmt); e.Path.Text != "my designs/top.iif" {
		t.Errorf("quoted Path = %q", e.Path.Text)
	}

	stmt, err = Parse(`expand -`)
	if err != nil {
		t.Fatal(err)
	}
	if e := stmt.(*ExpandStmt); e.Path.Text != "-" {
		t.Errorf("stdin Path = %q", e.Path.Text)
	}
}

// TestParseParetoCmd covers the ParetoCmd production: full clause
// complement, both "of" selectors, and the bare form.
func TestParseParetoCmd(t *testing.T) {
	stmt, err := Parse("find pareto of type Counter with area <= 200 and delay < 9 at width 16 dominated limit 10")
	if err != nil {
		t.Fatal(err)
	}
	f, ok := stmt.(*ParetoStmt)
	if !ok {
		t.Fatalf("Parse = %T, want *ParetoStmt", stmt)
	}
	if f.Type == nil || f.Type.Text != "Counter" || f.Generator != nil {
		t.Errorf("Type = %+v, Generator = %+v", f.Type, f.Generator)
	}
	if len(f.Where) != 2 || f.Where[0].Attr.Text != "area" || f.Where[1].Op != LT {
		t.Errorf("Where = %+v", f.Where)
	}
	if f.At == nil || f.At.Width != 16 {
		t.Errorf("At = %+v", f.At)
	}
	if !f.Dominated || !f.HasLimit || f.Limit != 10 {
		t.Errorf("Dominated = %v, Limit = %d (has %v)", f.Dominated, f.Limit, f.HasLimit)
	}

	stmt, err = Parse("find pareto of generator gen_cnt")
	if err != nil {
		t.Fatal(err)
	}
	f = stmt.(*ParetoStmt)
	if f.Generator == nil || f.Generator.Text != "gen_cnt" || f.Type != nil {
		t.Errorf("Generator = %+v, Type = %+v", f.Generator, f.Type)
	}

	stmt, err = Parse("find pareto")
	if err != nil {
		t.Fatal(err)
	}
	f = stmt.(*ParetoStmt)
	if f.Type != nil || f.Generator != nil || f.Where != nil || f.Dominated || f.HasLimit {
		t.Errorf("bare pareto = %+v", f)
	}
}

// TestParseExploreCmd covers the ExploreCmd production, including every
// tokenization the lexer can hand the width range ('.' is a word
// character, so "4..64" is one WORD; spacing splits it differently).
func TestParseExploreCmd(t *testing.T) {
	stmt, err := Parse("explore gen_cnt width 4..64 step 4 materialize stages=2")
	if err != nil {
		t.Fatal(err)
	}
	e, ok := stmt.(*ExploreStmt)
	if !ok {
		t.Fatalf("Parse = %T, want *ExploreStmt", stmt)
	}
	if e.Gen.Text != "gen_cnt" || e.Lo != 4 || e.Hi != 64 || e.Step != 4 || !e.Materialize {
		t.Errorf("explore = %+v", e)
	}
	if len(e.Params) != 1 || e.Params[0].Name.Text != "stages" || e.Params[0].Value != 2 {
		t.Errorf("Params = %+v", e.Params)
	}

	// All range tokenizations parse the same.
	for _, src := range []string{
		"explore gen_cnt width 4..64",
		"explore gen_cnt width 4 .. 64",
		"explore gen_cnt width 4.. 64",
		"explore gen_cnt width 4 ..64",
	} {
		stmt, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		e := stmt.(*ExploreStmt)
		if e.Lo != 4 || e.Hi != 64 || e.Step != 0 || e.Materialize {
			t.Errorf("Parse(%q) = %+v", src, e)
		}
	}

	// A degenerate single-point range is legal.
	stmt, err = Parse("explore gen_cnt width 8..8")
	if err != nil {
		t.Fatal(err)
	}
	if e := stmt.(*ExploreStmt); e.Lo != 8 || e.Hi != 8 {
		t.Errorf("single-point range = %+v", e)
	}
}

// TestParseHelpCmd covers the HelpCmd production.
func TestParseHelpCmd(t *testing.T) {
	stmt, err := Parse("help")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := stmt.(*HelpStmt); !ok {
		t.Errorf("help = %T", stmt)
	}
}

// TestParseCaseInsensitive checks keywords match in any case while the
// operand words keep their spelling.
func TestParseCaseInsensitive(t *testing.T) {
	f := parseFind(t, "FIND Component EXECUTING storage WITH Area <= 10 ORDER BY Delay LIMIT 2")
	if len(f.Executing) != 1 || f.Executing[0].Text != "storage" {
		t.Errorf("Executing = %+v", f.Executing)
	}
	if len(f.Where) != 1 || f.Where[0].Attr.Text != "area" {
		t.Errorf("Where = %+v", f.Where)
	}
	if f.OrderBy == nil || f.OrderBy.Key.Text != "delay" {
		t.Errorf("OrderBy = %+v", f.OrderBy)
	}
}

// TestParseErrors is the error-path table: exact messages, exact
// columns, and keyword suggestions.
func TestParseErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"", "cql: expected a command (find, show, describe, expand, generate, estimate, explore, or help), got end of command at col 1"},
		{"42", "cql: expected a command (find, show, describe, expand, generate, estimate, explore, or help), got number 42 at col 1"},
		{"fnd component", `cql: unknown command 'fnd' at col 1 (did you mean "find"?)`},
		{"descrbe reg_d", `cql: unknown command 'descrbe' at col 1 (did you mean "describe"?)`},
		{"exlpore gen_cnt width 4..64", `cql: unknown command 'exlpore' at col 1 (did you mean "explore"?)`},
		{"find", "cql: expected 'component' (or 'components', 'impls', 'pareto') after 'find', got end of command at col 5"},
		{"find componnet", `cql: expected 'component' (or 'components', 'impls', 'pareto') after 'find', got 'componnet' at col 6 (did you mean "component"?)`},
		{"find paretto of type Counter", `cql: expected 'component' (or 'components', 'impls', 'pareto') after 'find', got 'paretto' at col 6 (did you mean "pareto"?)`},
		{"find component of Counter", "cql: expected 'type' after 'of' (as in \"of type Counter\"), got 'Counter' at col 19"},
		{"find component of type", "cql: expected component type after 'of type', got end of command at col 23"},
		{"find component executing", "cql: expected function name after 'executing', got end of command at col 25"},
		{"find component executing STORAGE and", "cql: expected function name after 'and', got end of command at col 37"},
		{"find component exectuing STORAGE", `cql: unknown keyword 'exectuing' at col 16 (did you mean "executing"?)`},
		{"find component with", "cql: expected attribute after 'with', got end of command at col 20"},
		{"find component with <= 2", "cql: expected attribute after 'with', got '<=' at col 21"},
		{"find component with area <= 2 and", "cql: expected attribute after 'and', got end of command at col 34"},
		{"find component with aera <= 2", `cql: unknown attribute 'aera' at col 21 (did you mean "area"?)`},
		{"find component with area 10", "cql: expected comparison operator (<=, <, >=, >, =, !=) after 'area', got number 10 at col 26"},
		{"find component with area <= fast", "cql: expected number after '<=', got 'fast' at col 29"},
		{"find component order delay", "cql: expected 'by' after 'order', got 'delay' at col 22"},
		{"find component order by dely", `cql: unknown order key 'dely' at col 25 (did you mean "delay"?)`},
		{"find component order by width", "cql: cannot order by 'width' (it is sugar over the width range); order by width_min or width_max at col 25"},
		{"find component order by zzz", "cql: unknown order key 'zzz' (valid: cost, area, delay, stages, width_min, width_max) at col 25"},
		{"find component order by", "cql: expected order key after 'order by' (cost, area, delay, stages, width_min, width_max), got end of command at col 24"},
		{"find component limit x", "cql: expected non-negative integer after 'limit', got 'x' at col 22"},
		{"find component limit 2.5", "cql: expected non-negative integer after 'limit', got number 2.5 at col 22"},
		{"find component limit -1", "cql: expected non-negative integer after 'limit', got number -1 at col 22"},
		{"find component executing STORAGE of type Counter", "cql: clause 'of' is out of order or duplicated (clause order: of type, executing, with, at width, order by, limit)" /* col below */},
		{"find component limit 1 limit 2", "cql: clause 'limit' is out of order or duplicated (clause order: of type, executing, with, at width, order by, limit)"},
		{"find component at 16", "cql: expected 'width' after 'at' (as in \"at width 16\"), got number 16 at col 19"},
		{"find component at width", "cql: expected positive whole number of bits after 'at width', got end of command at col 24"},
		{"find component at width 0", "cql: expected positive whole number of bits after 'at width', got number 0 at col 25"},
		{"find component at width 2.5", "cql: expected positive whole number of bits after 'at width', got number 2.5 at col 25"},
		{"find component order by area at width 8", "cql: clause 'at' is out of order or duplicated (clause order: of type, executing, with, at width, order by, limit) at col 30"},
		{"show impl", `cql: unknown listing 'impl' at col 6 (did you mean "impls"?)`},
		{"show", "cql: expected 'impls', 'components', 'functions', 'generators', 'explorations', 'session', or 'server' after 'show', got end of command at col 5"},
		{"show generatos", `cql: unknown listing 'generatos' at col 6 (did you mean "generators"?)`},
		{"show exploration", `cql: unknown listing 'exploration' at col 6 (did you mean "explorations"?)`},
		{"find pareto of Counter", "cql: expected 'type' or 'generator' after 'of' (as in \"of type Counter\" or \"of generator gen_cnt\"), got 'Counter' at col 16"},
		{"find pareto of type", "cql: expected component type after 'of type', got end of command at col 20"},
		{"find pareto of generator", "cql: expected generator name after 'of generator', got end of command at col 25"},
		{"find pareto with aera <= 2", `cql: unknown attribute 'aera' at col 18 (did you mean "area"?)`},
		{"find pareto dominated with area <= 2", "cql: clause 'with' is out of order or duplicated (clause order: of, with, at width, dominated, limit) at col 23"},
		{"find pareto dominted", `cql: unknown keyword 'dominted' at col 13 (did you mean "dominated"?)`},
		{"find pareto limit x", "cql: expected non-negative integer after 'limit', got 'x' at col 19"},
		{"explore", "cql: expected generator name after 'explore', got end of command at col 8"},
		{"explore gen_cnt", "cql: expected 'width <lo>..<hi>' after the generator name, got end of command at col 16"},
		{"explore gen_cnt width", "cql: expected width range '<lo>..<hi>' after 'width', got end of command at col 22"},
		{"explore gen_cnt width 4", "cql: expected '..' after the lower width bound (as in \"width 4..64\"), got end of command at col 24"},
		{"explore gen_cnt width 4..", "cql: expected positive whole number of bits as the upper width bound, got end of command at col 26"},
		{"explore gen_cnt width ..64", "cql: width range needs a lower bound before '..' (as in \"width 4..64\") at col 23"},
		{"explore gen_cnt width 4..x", "cql: expected positive whole number of bits as a width bound, got 'x' at col 26"},
		{"explore gen_cnt width 8..4", "cql: bad width range 8..4 (upper bound below lower) at col 23"},
		{"explore gen_cnt width 0..8", "cql: expected positive whole number of bits as a width bound, got '0' at col 23"},
		{"explore gen_cnt width 0 ..8", "cql: expected positive whole number of bits as the lower width bound, got number 0 at col 23"},
		{"explore gen_cnt width 4..8 step 0", "cql: expected positive integer after 'step', got number 0 at col 33"},
		{"explore gen_cnt width 4..8 step x", "cql: expected positive integer after 'step', got 'x' at col 33"},
		{"explore gen_cnt width 4..8 stages 2", "cql: expected '=' after parameter name 'stages', got number 2 at col 35"},
		{"describe", "cql: expected implementation name after 'describe', got end of command at col 9"},
		{"expand", "cql: expected design file (or '-' for stdin) after 'expand', got end of command at col 7"},
		{"expand f.iif size 4", "cql: expected '=' after parameter name 'size', got number 4 at col 19"},
		{"expand f.iif size=big", "cql: expected integer value for parameter 'size', got 'big' at col 19"},
		{"expand f.iif size=2.5", "cql: expected integer value for parameter 'size', got number 2.5 at col 19"},
		{"expand f.iif =4", "cql: expected parameter name, got '=' at col 14"},
		{"generate", "cql: expected generator or component type after 'generate', got end of command at col 9"},
		{"generate gen size 4", "cql: expected '=' after parameter name 'size', got number 4 at col 19"},
		{"generate gen size=big", "cql: expected integer value for parameter 'size', got 'big' at col 19"},
		{"estimate", "cql: expected implementation name after 'estimate', got end of command at col 9"},
		{"estimate reg_d", "cql: expected 'width=<bits>' after the implementation name, got end of command at col 15"},
		{"estimate reg_d width", "cql: expected '=' after 'width', got end of command at col 21"},
		{"estimate reg_d width=0", "cql: expected positive whole number of bits after 'width=', got number 0 at col 22"},
		{"estimate reg_d width=8 aera", `cql: unknown estimate attribute 'aera' at col 24 (did you mean "area"?)`},
		{"help me", "cql: unexpected 'me' after complete command at col 6"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("Parse(%q): no error, want %q", c.src, c.want)
			continue
		}
		if !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("Parse(%q)\n  got  %q\n  want %q", c.src, err, c.want)
		}
	}
}

// TestParseErrorColumns spot-checks that *Error.Col is the machine-
// readable position, not just part of the message.
func TestParseErrorColumns(t *testing.T) {
	src := "find component executing STORAGE of type Counter"
	_, err := Parse(src)
	e, ok := err.(*Error)
	if !ok {
		t.Fatalf("error is %T", err)
	}
	if want := strings.Index(src, "of") + 1; e.Col != want {
		t.Errorf("Col = %d, want %d", e.Col, want)
	}
}

// TestSuggest pins the typo-suggestion behavior: close typos get hints,
// far-off words do not.
func TestSuggest(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{"exectuing", "executing"},
		{"EXECTUING", "executing"},
		{"limti", "limit"},
		{"wth", "with"},
		{"zzzzzz", ""},
	}
	for _, c := range cases {
		if got := suggest(c.got, clauseWords); got != c.want {
			t.Errorf("suggest(%q) = %q, want %q", c.got, got, c.want)
		}
	}
	if d := editDistance("kitten", "sitting"); d != 3 {
		t.Errorf("editDistance(kitten, sitting) = %d, want 3", d)
	}
	if d := editDistance("", "abc"); d != 3 {
		t.Errorf("editDistance(\"\", abc) = %d, want 3", d)
	}
}

// TestParseLexErrorWins: the parser pulls tokens one at a time, yet a lex
// error later on the line still wins over the parse error that comes
// before it, as when the whole line was lexed first.
func TestParseLexErrorWins(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{"find foo !", "cql: unexpected '!' (the only '!' operator is '!=') at col 10"},
		{`bogus "open`, "cql: unterminated string at col 7"},
		{"find component executing ? STORAGE", `cql: unexpected character "?" at col 26`},
	} {
		_, err := Parse(c.src)
		if err == nil || err.Error() != c.want {
			t.Errorf("Parse(%q) = %v, want %q", c.src, err, c.want)
		}
	}
	// Without the lex error the same prefix fails to parse.
	if _, err := Parse("find foo"); err == nil || strings.Contains(err.Error(), "'!'") {
		t.Errorf("Parse(%q) = %v, want a parse error", "find foo", err)
	}
}

package cql

import (
	"strconv"
	"strings"

	"icdb/internal/icdb"
)

// The keyword vocabularies of the grammar, one per decision point, in
// the order CQL.md documents them. They drive both parsing and the
// "did you mean" suggestions on typos. Attribute and order-key words
// come from the engine (icdb.ConstraintAttrs, icdb.OrderKeys), so an
// attribute added there is immediately queryable here; "width" is this
// layer's sugar over the width range (see compileCond).
var (
	commandWords = []string{"find", "show", "describe", "expand", "generate", "estimate", "explore", "set", "help"}
	targetWords  = []string{"component", "components", "impls", "pareto"}
	clauseWords  = []string{"of", "executing", "with", "at", "order", "limit"}
	// paretoClauseWords are the clause keywords of the "find pareto"
	// production, for suggestions on its trailing garbage.
	paretoClauseWords = []string{"of", "with", "at", "dominated", "limit"}
	attrWords         = append(icdb.ConstraintAttrs(), "width")
	orderKeyWords     = icdb.OrderKeys()
	showWords         = []string{"impls", "components", "functions", "generators", "explorations", "session", "server"}
	// setWords are the session parameters a set command may adjust.
	setWords = []string{"width", "area_weight", "delay_weight"}
	// estimateWords are the attributes an estimate command may single
	// out: the two estimator attributes plus the weighted cost score.
	estimateWords = append(icdb.EstimatorAttrs(), "cost")
)

// Parse parses one CQL command line into its typed AST. Errors are
// *Error values positioned at the offending token, with keyword
// suggestions for near-miss typos. Parsing validates the grammar and
// its keyword vocabularies; function, component, and implementation
// names are validated by the compiler (CompileFind, Env.Exec), which
// positions its errors the same way.
func Parse(src string) (Stmt, error) {
	// A lex error anywhere on the line wins over a parse error: lex it
	// through once first, keeping nothing. The parser then pulls tokens
	// from a second lexer, which cannot fail.
	for lx := (lexer{src: src}); ; {
		t, err := lx.next()
		if err != nil {
			return nil, err
		}
		if t.Kind == EOF {
			break
		}
	}
	p := &parser{lx: lexer{src: src}}
	p.tok, _ = p.lx.next()
	stmt, err := p.command()
	if err != nil {
		return nil, err
	}
	if t := p.cur(); t.Kind != EOF {
		return nil, errf(t.Col, "unexpected %s after complete command", describe(t))
	}
	return stmt, nil
}

// parser is a recursive-descent parser with one token of lookahead, tok,
// pulled from lx as it is consumed.
type parser struct {
	lx  lexer
	tok Token
}

func (p *parser) cur() Token { return p.tok }

func (p *parser) advance() Token {
	t := p.tok
	if t.Kind != EOF {
		p.tok, _ = p.lx.next() // Parse lexed the whole line once already
	}
	return t
}

// kw consumes the current token if it is the word s (case-insensitive).
func (p *parser) kw(s string) bool {
	t := p.cur()
	if t.Kind == WORD && strings.EqualFold(t.Text, s) {
		p.advance()
		return true
	}
	return false
}

// atKw reports whether the current token is the word s, without
// consuming it.
func (p *parser) atKw(s string) bool {
	t := p.cur()
	return t.Kind == WORD && strings.EqualFold(t.Text, s)
}

// sep consumes an "and" keyword or a comma, the two interchangeable
// list separators.
func (p *parser) sep() bool {
	if p.cur().Kind == COMMA {
		p.advance()
		return true
	}
	return p.kw("and")
}

// describe renders a token for an error message.
func describe(t Token) string {
	switch t.Kind {
	case EOF:
		return "end of command"
	case WORD:
		return "'" + t.Text + "'"
	case NUMBER:
		return "number " + t.Text
	case STRING:
		return "string"
	}
	return t.Kind.String()
}

// keywordIn matches the current WORD token against a vocabulary,
// case-insensitively, returning the canonical (lower-case) form.
func keywordIn(t Token, vocab []string) (string, bool) {
	if t.Kind != WORD {
		return "", false
	}
	for _, w := range vocab {
		if strings.EqualFold(t.Text, w) {
			return w, true
		}
	}
	return "", false
}

// command parses the top-level production: one of the seven command
// forms.
func (p *parser) command() (Stmt, error) {
	t := p.cur()
	cmd, ok := keywordIn(t, commandWords)
	if !ok {
		if t.Kind == WORD {
			return nil, &Error{Col: t.Col,
				Msg:  "unknown command '" + t.Text + "'",
				Hint: suggest(t.Text, commandWords)}
		}
		return nil, errf(t.Col, "expected a command (find, show, describe, expand, generate, estimate, explore, or help), got %s", describe(t))
	}
	p.advance()
	switch cmd {
	case "find":
		return p.find()
	case "show":
		return p.show()
	case "describe":
		return p.describeCmd()
	case "expand":
		return p.expand()
	case "generate":
		return p.generate()
	case "estimate":
		return p.estimate()
	case "explore":
		return p.explore()
	case "set":
		return p.set()
	}
	return &HelpStmt{}, nil
}

// set parses "set" Param (Number | "off"): the session-parameter
// command.
func (p *parser) set() (Stmt, error) {
	t := p.cur()
	param, ok := keywordIn(t, setWords)
	if !ok {
		if t.Kind == WORD {
			e := &Error{Col: t.Col,
				Msg:  "unknown session parameter '" + t.Text + "'",
				Hint: suggest(t.Text, setWords)}
			if e.Hint == "" {
				e.Msg += " (valid: " + strings.Join(setWords, ", ") + ")"
			}
			return nil, e
		}
		return nil, errf(t.Col, "expected session parameter (%s) after 'set', got %s", strings.Join(setWords, ", "), describe(t))
	}
	p.advance()
	s := &SetStmt{Param: Word{Text: param, Col: t.Col}}
	v := p.cur()
	switch {
	case v.Kind == WORD && strings.EqualFold(v.Text, "off"):
		s.Off = true
	case v.Kind == NUMBER:
		if param == "width" && (!v.IsInt || v.Val < 1) {
			return nil, errf(v.Col, "expected positive whole number of bits after 'set width', got %s", describe(v))
		}
		if v.Val < 0 {
			return nil, errf(v.Col, "expected non-negative %s, got %s", param, describe(v))
		}
		s.Value = v.Val
	default:
		return nil, errf(v.Col, "expected a number or 'off' after 'set %s', got %s", param, describe(v))
	}
	p.advance()
	s.ValueCol = v.Col
	return s, nil
}

// find parses
//
//	"find" Target [OfType] [Executing] [With] [AtWidth] [OrderBy] [Limit]
//
// with the clauses in that fixed order.
func (p *parser) find() (Stmt, error) {
	t := p.cur()
	target, ok := keywordIn(t, targetWords)
	if !ok {
		return nil, &Error{Col: t.Col,
			Msg:  "expected 'component' (or 'components', 'impls', 'pareto') after 'find', got " + describe(t),
			Hint: suggestWord(t, targetWords)}
	}
	if target == "pareto" {
		p.advance()
		return p.pareto()
	}
	f := &FindStmt{Target: Word{Text: t.Text, Col: t.Col}}
	p.advance()

	if p.atKw("of") {
		p.advance()
		if !p.kw("type") {
			return nil, errf(p.cur().Col, "expected 'type' after 'of' (as in \"of type Counter\"), got %s", describe(p.cur()))
		}
		n := p.cur()
		if n.Kind != WORD {
			return nil, errf(n.Col, "expected component type after 'of type', got %s", describe(n))
		}
		p.advance()
		f.Type = &Word{Text: n.Text, Col: n.Col}
	}

	if p.atKw("executing") {
		p.advance()
		for {
			n := p.cur()
			if n.Kind != WORD {
				return nil, errf(n.Col, "expected function name after '%s', got %s", prevSep(f.Executing), describe(n))
			}
			p.advance()
			f.Executing = append(f.Executing, Word{Text: n.Text, Col: n.Col})
			if !p.sep() {
				break
			}
		}
	}

	if p.atKw("with") {
		p.advance()
		after := "'with'"
		for {
			cond, err := p.cond(after)
			if err != nil {
				return nil, err
			}
			f.Where = append(f.Where, *cond)
			if !p.sep() {
				break
			}
			after = "'and'"
		}
	}

	if p.atKw("at") {
		p.advance()
		if !p.kw("width") {
			return nil, errf(p.cur().Col, "expected 'width' after 'at' (as in \"at width 16\"), got %s", describe(p.cur()))
		}
		n := p.cur()
		if n.Kind != NUMBER || !n.IsInt || n.Val < 1 {
			return nil, errf(n.Col, "expected positive whole number of bits after 'at width', got %s", describe(n))
		}
		p.advance()
		f.At = &AtClause{Width: int(n.Val), Col: n.Col}
	}

	if p.atKw("order") {
		p.advance()
		if !p.kw("by") {
			return nil, errf(p.cur().Col, "expected 'by' after 'order', got %s", describe(p.cur()))
		}
		k := p.cur()
		key, ok := keywordIn(k, orderKeyWords)
		if !ok {
			if strings.EqualFold(k.Text, "width") {
				// The one near-miss the grammar itself invites: width is a
				// constraint sugar, not a sortable attribute.
				return nil, errf(k.Col, "cannot order by 'width' (it is sugar over the width range); order by width_min or width_max")
			}
			if k.Kind == WORD {
				e := &Error{Col: k.Col,
					Msg:  "unknown order key '" + k.Text + "'",
					Hint: suggest(k.Text, orderKeyWords)}
				if e.Hint == "" {
					e.Msg += " (valid: " + strings.Join(orderKeyWords, ", ") + ")"
				}
				return nil, e
			}
			return nil, errf(k.Col, "expected order key after 'order by' (%s), got %s", strings.Join(orderKeyWords, ", "), describe(k))
		}
		p.advance()
		f.OrderBy = &OrderClause{Key: Word{Text: key, Col: k.Col}}
		if p.kw("desc") {
			f.OrderBy.Desc = true
		} else {
			p.kw("asc")
		}
	}

	if p.atKw("limit") {
		p.advance()
		n := p.cur()
		if n.Kind != NUMBER || !n.IsInt || n.Val < 0 {
			return nil, errf(n.Col, "expected non-negative integer after 'limit', got %s", describe(n))
		}
		p.advance()
		f.Limit = int(n.Val)
		f.HasLimit = true
	}

	// Anything left is either a clause out of canonical order (or
	// duplicated) or an unknown keyword worth a suggestion.
	if t := p.cur(); t.Kind == WORD {
		if kw, ok := keywordIn(t, clauseWords); ok {
			return nil, errf(t.Col, "clause '%s' is out of order or duplicated (clause order: of type, executing, with, at width, order by, limit)", kw)
		}
		return nil, &Error{Col: t.Col,
			Msg:  "unknown keyword '" + t.Text + "'",
			Hint: suggest(t.Text, clauseWords)}
	}
	return f, nil
}

// pareto parses the tail of
//
//	"find" "pareto" [("of" ("type" Name | "generator" Name))]
//	                [With] [AtWidth] ["dominated"] [Limit]
//
// with the clauses in that fixed order. The "find" and "pareto" words
// are already consumed.
func (p *parser) pareto() (Stmt, error) {
	f := &ParetoStmt{}
	if p.atKw("of") {
		p.advance()
		switch {
		case p.kw("type"):
			n := p.cur()
			if n.Kind != WORD {
				return nil, errf(n.Col, "expected component type after 'of type', got %s", describe(n))
			}
			p.advance()
			f.Type = &Word{Text: n.Text, Col: n.Col}
		case p.kw("generator"):
			n := p.cur()
			if n.Kind != WORD && n.Kind != STRING {
				return nil, errf(n.Col, "expected generator name after 'of generator', got %s", describe(n))
			}
			p.advance()
			f.Generator = &Word{Text: n.Text, Col: n.Col}
		default:
			return nil, errf(p.cur().Col, "expected 'type' or 'generator' after 'of' (as in \"of type Counter\" or \"of generator gen_cnt\"), got %s", describe(p.cur()))
		}
	}

	if p.atKw("with") {
		p.advance()
		after := "'with'"
		for {
			cond, err := p.cond(after)
			if err != nil {
				return nil, err
			}
			f.Where = append(f.Where, *cond)
			if !p.sep() {
				break
			}
			after = "'and'"
		}
	}

	if p.atKw("at") {
		p.advance()
		if !p.kw("width") {
			return nil, errf(p.cur().Col, "expected 'width' after 'at' (as in \"at width 16\"), got %s", describe(p.cur()))
		}
		n := p.cur()
		if n.Kind != NUMBER || !n.IsInt || n.Val < 1 {
			return nil, errf(n.Col, "expected positive whole number of bits after 'at width', got %s", describe(n))
		}
		p.advance()
		f.At = &AtClause{Width: int(n.Val), Col: n.Col}
	}

	if p.kw("dominated") {
		f.Dominated = true
	}

	if p.atKw("limit") {
		p.advance()
		n := p.cur()
		if n.Kind != NUMBER || !n.IsInt || n.Val < 0 {
			return nil, errf(n.Col, "expected non-negative integer after 'limit', got %s", describe(n))
		}
		p.advance()
		f.Limit = int(n.Val)
		f.HasLimit = true
	}

	if t := p.cur(); t.Kind == WORD {
		if kw, ok := keywordIn(t, paretoClauseWords); ok {
			return nil, errf(t.Col, "clause '%s' is out of order or duplicated (clause order: of, with, at width, dominated, limit)", kw)
		}
		return nil, &Error{Col: t.Col,
			Msg:  "unknown keyword '" + t.Text + "'",
			Hint: suggest(t.Text, paretoClauseWords)}
	}
	return f, nil
}

// explore parses
//
//	"explore" Name "width" Range ["step" Int] ["materialize"]
//	          { Name "=" Int }
//
// where Range is "<lo>..<hi>" (see widthRange).
func (p *parser) explore() (Stmt, error) {
	t := p.cur()
	if t.Kind != WORD && t.Kind != STRING {
		return nil, errf(t.Col, "expected generator name after 'explore', got %s", describe(t))
	}
	p.advance()
	e := &ExploreStmt{Gen: Word{Text: t.Text, Col: t.Col}}
	if !p.kw("width") {
		return nil, errf(p.cur().Col, "expected 'width <lo>..<hi>' after the generator name, got %s", describe(p.cur()))
	}
	lo, hi, col, err := p.widthRange()
	if err != nil {
		return nil, err
	}
	e.Lo, e.Hi, e.RangeCol = lo, hi, col
	if p.atKw("step") {
		p.advance()
		n := p.cur()
		if n.Kind != NUMBER || !n.IsInt || n.Val < 1 {
			return nil, errf(n.Col, "expected positive integer after 'step', got %s", describe(n))
		}
		p.advance()
		e.Step = int(n.Val)
	}
	if p.kw("materialize") {
		e.Materialize = true
	}
	params, err := p.paramList()
	if err != nil {
		return nil, err
	}
	e.Params = params
	return e, nil
}

// widthRange parses the "<lo>..<hi>" production of an explore command.
// The lexer's word rules make '.' a word character (so file paths lex
// whole), which means "4..64" arrives as a single WORD; the range may
// also arrive split across tokens ("4 .. 64", "4.. 64", "4 ..64"), and
// every split parses the same.
func (p *parser) widthRange() (lo, hi, col int, err error) {
	t := p.cur()
	col = t.Col
	switch {
	case t.Kind == NUMBER:
		if !t.IsInt || t.Val < 1 {
			return 0, 0, 0, errf(t.Col, "expected positive whole number of bits as the lower width bound, got %s", describe(t))
		}
		lo = int(t.Val)
		p.advance()
		d := p.cur()
		if d.Kind != WORD || !strings.HasPrefix(d.Text, "..") {
			return 0, 0, 0, errf(d.Col, "expected '..' after the lower width bound (as in \"width %d..64\"), got %s", lo, describe(d))
		}
		p.advance()
		if rest := d.Text[2:]; rest != "" {
			hi, err = rangeBound(rest, d.Col+2)
			if err != nil {
				return 0, 0, 0, err
			}
		} else {
			n := p.cur()
			if n.Kind != NUMBER || !n.IsInt || n.Val < 1 {
				return 0, 0, 0, errf(n.Col, "expected positive whole number of bits as the upper width bound, got %s", describe(n))
			}
			p.advance()
			hi = int(n.Val)
		}
	case t.Kind == WORD && strings.Contains(t.Text, ".."):
		i := strings.Index(t.Text, "..")
		loStr, hiStr := t.Text[:i], t.Text[i+2:]
		if loStr == "" {
			return 0, 0, 0, errf(t.Col, "width range needs a lower bound before '..' (as in \"width 4..64\")")
		}
		if lo, err = rangeBound(loStr, t.Col); err != nil {
			return 0, 0, 0, err
		}
		p.advance()
		if hiStr != "" {
			if hi, err = rangeBound(hiStr, t.Col+i+2); err != nil {
				return 0, 0, 0, err
			}
		} else {
			n := p.cur()
			if n.Kind != NUMBER || !n.IsInt || n.Val < 1 {
				return 0, 0, 0, errf(n.Col, "expected positive whole number of bits as the upper width bound, got %s", describe(n))
			}
			p.advance()
			hi = int(n.Val)
		}
	default:
		return 0, 0, 0, errf(t.Col, "expected width range '<lo>..<hi>' after 'width', got %s", describe(t))
	}
	if hi < lo {
		return 0, 0, 0, errf(col, "bad width range %d..%d (upper bound below lower)", lo, hi)
	}
	return lo, hi, col, nil
}

// rangeBound parses one bound of a width range that arrived glued to
// the ".." inside a single word.
func rangeBound(s string, col int) (int, error) {
	v, err := strconv.Atoi(s)
	if err != nil || v < 1 {
		return 0, errf(col, "expected positive whole number of bits as a width bound, got '%s'", s)
	}
	return v, nil
}

// prevSep names the token a function list element follows, for error
// messages: 'executing' for the first element, 'and' afterwards.
func prevSep(sofar []Word) string {
	if len(sofar) == 0 {
		return "executing"
	}
	return "and"
}

// cond parses one attribute comparison: Attr CmpOp Number. after names
// the preceding keyword for error positions ("expected attribute after
// 'with'").
func (p *parser) cond(after string) (*Cond, error) {
	a := p.cur()
	if a.Kind != WORD {
		return nil, errf(a.Col, "expected attribute after %s, got %s", after, describe(a))
	}
	attr, ok := keywordIn(a, attrWords)
	if !ok {
		return nil, &Error{Col: a.Col,
			Msg:  "unknown attribute '" + a.Text + "'",
			Hint: suggest(a.Text, attrWords)}
	}
	p.advance()
	op := p.cur()
	switch op.Kind {
	case LE, LT, GE, GT, EQ, NE:
	default:
		return nil, errf(op.Col, "expected comparison operator (<=, <, >=, >, =, !=) after '%s', got %s", a.Text, describe(op))
	}
	p.advance()
	v := p.cur()
	if v.Kind != NUMBER {
		return nil, errf(v.Col, "expected number after '%s', got %s", op.Text, describe(v))
	}
	p.advance()
	return &Cond{
		Attr:       Word{Text: attr, Col: a.Col},
		Op:         op.Kind,
		OpText:     op.Text,
		OpCol:      op.Col,
		Value:      v.Val,
		ValueIsInt: v.IsInt,
		ValueCol:   v.Col,
	}, nil
}

// show parses "show" ("impls" | "components" | "functions" |
// "generators" | "explorations" | "session" | "server").
func (p *parser) show() (Stmt, error) {
	t := p.cur()
	what, ok := keywordIn(t, showWords)
	if !ok {
		if t.Kind == WORD {
			return nil, &Error{Col: t.Col,
				Msg:  "unknown listing '" + t.Text + "'",
				Hint: suggest(t.Text, showWords)}
		}
		return nil, errf(t.Col, "expected 'impls', 'components', 'functions', 'generators', 'explorations', 'session', or 'server' after 'show', got %s", describe(t))
	}
	p.advance()
	return &ShowStmt{What: Word{Text: what, Col: t.Col}}, nil
}

// describeCmd parses "describe" Name.
func (p *parser) describeCmd() (Stmt, error) {
	t := p.cur()
	if t.Kind != WORD && t.Kind != STRING {
		return nil, errf(t.Col, "expected implementation name after 'describe', got %s", describe(t))
	}
	p.advance()
	return &DescribeStmt{Name: Word{Text: t.Text, Col: t.Col}}, nil
}

// expand parses "expand" Path { Name "=" Int }.
func (p *parser) expand() (Stmt, error) {
	t := p.cur()
	if t.Kind != WORD && t.Kind != STRING {
		return nil, errf(t.Col, "expected design file (or '-' for stdin) after 'expand', got %s", describe(t))
	}
	p.advance()
	e := &ExpandStmt{Path: Word{Text: t.Text, Col: t.Col}}
	params, err := p.paramList()
	if err != nil {
		return nil, err
	}
	e.Params = params
	return e, nil
}

// generate parses "generate" Name { Name "=" Int }: a generator (or
// component type) followed by its parameter-point bindings.
func (p *parser) generate() (Stmt, error) {
	t := p.cur()
	if t.Kind != WORD && t.Kind != STRING {
		return nil, errf(t.Col, "expected generator or component type after 'generate', got %s", describe(t))
	}
	p.advance()
	g := &GenerateStmt{Name: Word{Text: t.Text, Col: t.Col}}
	params, err := p.paramList()
	if err != nil {
		return nil, err
	}
	g.Params = params
	return g, nil
}

// estimate parses "estimate" Name "width" "=" Int [Attr].
func (p *parser) estimate() (Stmt, error) {
	t := p.cur()
	if t.Kind != WORD && t.Kind != STRING {
		return nil, errf(t.Col, "expected implementation name after 'estimate', got %s", describe(t))
	}
	p.advance()
	e := &EstimateStmt{Name: Word{Text: t.Text, Col: t.Col}}
	if !p.kw("width") {
		return nil, errf(p.cur().Col, "expected 'width=<bits>' after the implementation name, got %s", describe(p.cur()))
	}
	if p.cur().Kind != EQ {
		return nil, errf(p.cur().Col, "expected '=' after 'width', got %s", describe(p.cur()))
	}
	p.advance()
	v := p.cur()
	if v.Kind != NUMBER || !v.IsInt || v.Val < 1 {
		return nil, errf(v.Col, "expected positive whole number of bits after 'width=', got %s", describe(v))
	}
	p.advance()
	e.Width = int(v.Val)
	e.WidthCol = v.Col
	if a := p.cur(); a.Kind == WORD {
		attr, ok := keywordIn(a, estimateWords)
		if !ok {
			e := &Error{Col: a.Col,
				Msg:  "unknown estimate attribute '" + a.Text + "'",
				Hint: suggest(a.Text, estimateWords)}
			if e.Hint == "" {
				e.Msg += " (valid: " + strings.Join(estimateWords, ", ") + ")"
			}
			return nil, e
		}
		p.advance()
		e.Attr = &Word{Text: attr, Col: a.Col}
	}
	return e, nil
}

// paramList parses the { Name "=" Int } binding tail shared by the
// expand and generate commands.
func (p *parser) paramList() ([]ExpandParam, error) {
	var params []ExpandParam
	for p.cur().Kind != EOF {
		n := p.cur()
		if n.Kind != WORD {
			return nil, errf(n.Col, "expected parameter name, got %s", describe(n))
		}
		p.advance()
		if p.cur().Kind != EQ {
			return nil, errf(p.cur().Col, "expected '=' after parameter name '%s', got %s", n.Text, describe(p.cur()))
		}
		p.advance()
		v := p.cur()
		if v.Kind != NUMBER || !v.IsInt {
			return nil, errf(v.Col, "expected integer value for parameter '%s', got %s", n.Text, describe(v))
		}
		p.advance()
		params = append(params, ExpandParam{Name: Word{Text: n.Text, Col: n.Col}, Value: int(v.Val)})
	}
	return params, nil
}

// suggestWord suggests a replacement for a WORD token, or "" for other
// token kinds.
func suggestWord(t Token, vocab []string) string {
	if t.Kind != WORD {
		return ""
	}
	return suggest(t.Text, vocab)
}

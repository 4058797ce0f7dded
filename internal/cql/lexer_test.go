package cql

import (
	"errors"
	"strings"
	"testing"
)

func kinds(toks []Token) []Kind {
	out := make([]Kind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func TestLexKindsAndColumns(t *testing.T) {
	toks, err := Lex(`find area <= 10.5 and n != 5, path/to.iif x=-3`)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		kind Kind
		text string
		col  int
	}{
		{WORD, "find", 1},
		{WORD, "area", 6},
		{LE, "<=", 11},
		{NUMBER, "10.5", 14},
		{WORD, "and", 19},
		{WORD, "n", 23},
		{NE, "!=", 25},
		{NUMBER, "5", 28},
		{COMMA, ",", 29},
		{WORD, "path/to.iif", 31},
		{WORD, "x", 43},
		{EQ, "=", 44},
		{NUMBER, "-3", 45},
		{EOF, "", 47},
	}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens %v, want %d", len(toks), kinds(toks), len(want))
	}
	for i, w := range want {
		if toks[i].Kind != w.kind || toks[i].Text != w.text || toks[i].Col != w.col {
			t.Errorf("tok[%d] = {%v %q col %d}, want {%v %q col %d}",
				i, toks[i].Kind, toks[i].Text, toks[i].Col, w.kind, w.text, w.col)
		}
	}
}

func TestLexNumberClassification(t *testing.T) {
	cases := []struct {
		src   string
		kind  Kind
		val   float64
		isInt bool
	}{
		{"5", NUMBER, 5, true},
		{"10.5", NUMBER, 10.5, false},
		{"-3", NUMBER, -3, true},
		{".5", NUMBER, 0.5, false},
		{"1e3", NUMBER, 1000, false},
		{"inf", WORD, 0, false}, // ParseFloat would accept these; the
		{"nan", WORD, 0, false}, // lexer must not.
		{"2to1mux.iif", WORD, 0, false},
		{"10.5.iif", WORD, 0, false},
	}
	for _, c := range cases {
		toks, err := Lex(c.src)
		if err != nil {
			t.Fatalf("Lex(%q): %v", c.src, err)
		}
		if len(toks) != 2 || toks[0].Kind != c.kind {
			t.Errorf("Lex(%q) = %v, want one %v", c.src, kinds(toks), c.kind)
			continue
		}
		if c.kind == NUMBER && (toks[0].Val != c.val || toks[0].IsInt != c.isInt) {
			t.Errorf("Lex(%q) = val %g int %v, want %g int %v",
				c.src, toks[0].Val, toks[0].IsInt, c.val, c.isInt)
		}
	}
}

func TestLexStrings(t *testing.T) {
	toks, err := Lex(`describe "my designs/top.iif"`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].Kind != STRING || toks[1].Text != "my designs/top.iif" {
		t.Fatalf("string tok = %+v", toks[1])
	}
	toks, err = Lex(`expand "a \"b\" \\c"`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].Text != `a "b" \c` {
		t.Fatalf("escaped string = %q", toks[1].Text)
	}
}

func TestLexErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{`find ! x`, "cql: unexpected '!' (the only '!' operator is '!=') at col 6"},
		{`describe "open`, "cql: unterminated string at col 10"},
		{`expand "a\n"`, `cql: unknown escape '\n' (only \" and \\) at col 10`},
		{`expand "a\`, "cql: unterminated string at col 8"},
		{`find ?`, `cql: unexpected character "?" at col 6`},
	}
	for _, c := range cases {
		_, err := Lex(c.src)
		if err == nil {
			t.Errorf("Lex(%q): no error, want %q", c.src, c.want)
			continue
		}
		if err.Error() != c.want {
			t.Errorf("Lex(%q) = %q, want %q", c.src, err, c.want)
		}
		var e *Error
		if !errors.As(err, &e) {
			t.Errorf("Lex(%q) error is %T, want *Error", c.src, err)
		}
	}
}

func TestLexWhitespaceOnly(t *testing.T) {
	toks, err := Lex("   \t  ")
	if err != nil || len(toks) != 1 || toks[0].Kind != EOF {
		t.Fatalf("Lex(blank) = %v, %v", toks, err)
	}
	if !strings.Contains(EOF.String(), "end") {
		t.Errorf("EOF.String() = %q", EOF.String())
	}
}

// TestLexWordsAllocateNothing: a keyword or name is classified without
// ParseFloat, whose error for a non-number would copy the word's text.
func TestLexWordsAllocateNothing(t *testing.T) {
	const line = "find component of type Register executing STORAGE and LOAD order by cost desc"
	allocs := testing.AllocsPerRun(100, func() {
		lx := lexer{src: line}
		for {
			tok, err := lx.next()
			if err != nil {
				t.Fatal(err)
			}
			if tok.Kind == EOF {
				return
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("lexing %q allocated %v time(s), want 0", line, allocs)
	}
}

package cql

import (
	"strconv"
	"strings"
	"unicode"
)

// isWordStart reports whether c can begin a bare word. Path characters
// are included so "designs/counter.iif" lexes as one token.
func isWordStart(c byte) bool {
	return c == '_' || c == '.' || c == '/' || c == '~' ||
		unicode.IsLetter(rune(c))
}

// isWordPart reports whether c can continue a bare word.
func isWordPart(c byte) bool {
	return isWordStart(c) || c == '-' || unicode.IsDigit(rune(c))
}

// lexer tokenizes one CQL command line.
type lexer struct {
	src string
	off int
}

// Lex tokenizes src, returning the token stream terminated by an EOF
// token. Columns are 1-based byte offsets into src.
func Lex(src string) ([]Token, error) {
	lx := &lexer{src: src}
	var toks []Token
	for {
		t, err := lx.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == EOF {
			return toks, nil
		}
	}
}

func (l *lexer) col() int { return l.off + 1 }

func (l *lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *lexer) peekAt(n int) byte {
	if l.off+n >= len(l.src) {
		return 0
	}
	return l.src[l.off+n]
}

func (l *lexer) next() (Token, error) {
	for l.off < len(l.src) {
		c := l.peek()
		if c != ' ' && c != '\t' && c != '\r' && c != '\n' {
			break
		}
		l.off++
	}
	col := l.col()
	if l.off >= len(l.src) {
		return Token{Kind: EOF, Col: col}, nil
	}
	c := l.peek()

	switch {
	case c == '"':
		return l.lexString(col)

	case unicode.IsDigit(rune(c)), c == '-', isWordStart(c):
		// '-' alone is a word (the stdin path of expand); '-' before a
		// digit begins a negative number.
		return l.lexWordOrNumber(col), nil
	}

	l.off++
	switch c {
	case ',':
		return Token{Kind: COMMA, Text: ",", Col: col}, nil
	case '<':
		if l.peek() == '=' {
			l.off++
			return Token{Kind: LE, Text: "<=", Col: col}, nil
		}
		return Token{Kind: LT, Text: "<", Col: col}, nil
	case '>':
		if l.peek() == '=' {
			l.off++
			return Token{Kind: GE, Text: ">=", Col: col}, nil
		}
		return Token{Kind: GT, Text: ">", Col: col}, nil
	case '=':
		if l.peek() == '=' {
			l.off++
			return Token{Kind: EQ, Text: "==", Col: col}, nil
		}
		return Token{Kind: EQ, Text: "=", Col: col}, nil
	case '!':
		if l.peek() == '=' {
			l.off++
			return Token{Kind: NE, Text: "!=", Col: col}, nil
		}
		return Token{}, errf(col, "unexpected '!' (the only '!' operator is '!=')")
	}
	return Token{}, errf(col, "unexpected character %q", string(rune(c)))
}

// lexWordOrNumber scans a maximal run of word characters (plus a leading
// '-' for negative numbers) and classifies it: a run that parses as a
// decimal number is a NUMBER, anything else is a WORD. This makes
// "10.5" a number but "2to1mux.iif" a single word.
func (l *lexer) lexWordOrNumber(col int) Token {
	start := l.off
	if l.peek() == '-' {
		l.off++
	}
	for l.off < len(l.src) && isWordPart(l.peek()) {
		l.off++
	}
	text := l.src[start:l.off]
	// Only runs that look numeric are candidates for NUMBER: ParseFloat
	// alone would also accept the words "inf" and "nan", and its error
	// for any other word would copy the word's text.
	numeric := unicode.IsDigit(rune(text[0])) ||
		(len(text) > 1 && (text[0] == '-' || text[0] == '.') && unicode.IsDigit(rune(text[1])))
	if !numeric {
		return Token{Kind: WORD, Text: text, Col: col}
	}
	if v, err := strconv.ParseFloat(text, 64); err == nil {
		return Token{
			Kind:  NUMBER,
			Text:  text,
			Val:   v,
			IsInt: !strings.ContainsAny(text, ".eE"),
			Col:   col,
		}
	}
	return Token{Kind: WORD, Text: text, Col: col}
}

// lexString scans a double-quoted string with \" and \\ escapes.
func (l *lexer) lexString(col int) (Token, error) {
	l.off++ // opening quote
	var sb strings.Builder
	for l.off < len(l.src) {
		c := l.src[l.off]
		switch c {
		case '"':
			l.off++
			return Token{Kind: STRING, Text: sb.String(), Col: col}, nil
		case '\\':
			if l.off+1 >= len(l.src) {
				// A lone trailing backslash: report the unterminated
				// string, not an escape with a NUL in it.
				return Token{}, errf(col, "unterminated string")
			}
			esc := l.peekAt(1)
			if esc != '"' && esc != '\\' {
				return Token{}, errf(l.col(), `unknown escape '\%s' (only \" and \\)`, string(rune(esc)))
			}
			sb.WriteByte(esc)
			l.off += 2
		default:
			sb.WriteByte(c)
			l.off++
		}
	}
	return Token{}, errf(col, "unterminated string")
}

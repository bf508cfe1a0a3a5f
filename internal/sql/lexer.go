// Package sql implements the SQL dialect shared by the simulated engines:
// a lexer, parser, and AST with printing for the subset needed by the
// paper's workloads (TPC-H adaptations, SQLancer-style generated queries,
// and the DDL/DML used by QPG database mutation).
package sql

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// TokenKind discriminates lexical token types.
type TokenKind uint8

// Token kinds.
const (
	TEOF TokenKind = iota
	TIdent
	TKeyword
	TInt
	TFloat
	TString
	TSymbol // operators and punctuation
)

// Token is one lexical token with its source position (byte offset).
type Token struct {
	Kind TokenKind
	Text string // keywords are upper-cased; identifiers keep original case
	Pos  int
}

func (t Token) String() string {
	if t.Kind == TEOF {
		return "<eof>"
	}
	return t.Text
}

// keywords maps each keyword to itself, so a token can take its upper-case
// Text from the map instead of allocating one.
var keywords = func() map[string]string {
	m := map[string]string{}
	for _, kw := range strings.Fields(`
		SELECT FROM WHERE GROUP BY HAVING ORDER LIMIT OFFSET ASC DESC DISTINCT
		ALL AS JOIN INNER LEFT RIGHT OUTER CROSS ON UNION INTERSECT EXCEPT AND
		OR NOT IN IS NULL BETWEEN LIKE EXISTS CASE WHEN THEN ELSE END TRUE
		FALSE CREATE TABLE INDEX UNIQUE PRIMARY KEY INSERT INTO VALUES UPDATE
		SET DELETE INT INTEGER FLOAT REAL TEXT VARCHAR BOOL BOOLEAN DECIMAL DATE
		EXPLAIN ANALYZE FORMAT`) {
		m[kw] = kw
	}
	return m
}()

// maxKeywordLen bounds the ASCII case-folding buffer: a longer ASCII word
// cannot be a keyword.
const maxKeywordLen = 9

// isWordByte reports whether c continues an identifier or keyword. Bytes
// above 0x7F are judged as the Latin-1 runes of the same value, as the
// lexer always has.
func isWordByte(c byte) bool {
	if c < utf8.RuneSelf {
		return 'a' <= c|0x20 && c|0x20 <= 'z' || '0' <= c && c <= '9' || c == '_'
	}
	return unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

// keyword returns the upper-case keyword a word spells, if any. ASCII
// words are folded in a stack buffer; other words take strings.ToUpper,
// whose Unicode case mapping can turn non-ASCII letters into a keyword's
// ASCII ones (ſ upper-cases to S).
//
//uplan:hotpath
func keyword(word string) (string, bool) {
	var buf [maxKeywordLen]byte
	for i := 0; i < len(word); i++ {
		c := word[i]
		if c >= utf8.RuneSelf {
			kw, ok := keywords[strings.ToUpper(word)]
			return kw, ok
		}
		if i == len(buf) {
			return "", false
		}
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		buf[i] = c
	}
	kw, ok := keywords[string(buf[:len(word)])]
	return kw, ok
}

// Lex tokenizes the input. It returns an error for unterminated strings or
// illegal characters.
//
//uplan:hotpath
func Lex(input string) ([]Token, error) {
	// One token per three bytes covers typical SQL without regrowing.
	toks := make([]Token, 0, len(input)/3+2)
	i := 0
	n := len(input)
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < n && input[i+1] == '-':
			for i < n && input[i] != '\n' {
				i++
			}
		case c == '_' || c < utf8.RuneSelf && 'a' <= c|0x20 && c|0x20 <= 'z' || c >= utf8.RuneSelf && unicode.IsLetter(rune(c)):
			start := i
			for i < n && isWordByte(input[i]) {
				i++
			}
			word := input[start:i]
			if kw, ok := keyword(word); ok {
				toks = append(toks, Token{Kind: TKeyword, Text: kw, Pos: start})
			} else {
				toks = append(toks, Token{Kind: TIdent, Text: word, Pos: start})
			}
		case c >= '0' && c <= '9' || c == '.' && i+1 < n && input[i+1] >= '0' && input[i+1] <= '9':
			start := i
			isFloat := false
			for i < n {
				d := input[i]
				if d >= '0' && d <= '9' {
					i++
					continue
				}
				if d == '.' && !isFloat {
					isFloat = true
					i++
					continue
				}
				if (d == 'e' || d == 'E') && i+1 < n {
					next := input[i+1]
					if next >= '0' && next <= '9' || next == '+' || next == '-' {
						isFloat = true
						i += 2
						continue
					}
				}
				break
			}
			kind := TInt
			if isFloat {
				kind = TFloat
			}
			toks = append(toks, Token{Kind: kind, Text: input[start:i], Pos: start})
		case c == '\'':
			start := i
			text, next, ok := stringLiteral(input, i+1)
			if !ok {
				return nil, fmt.Errorf("sql: unterminated string at offset %d", start)
			}
			i = next
			toks = append(toks, Token{Kind: TString, Text: text, Pos: start})
		default:
			start := i
			if i+1 < n {
				switch two := input[i : i+2]; two {
				case "<=", ">=", "<>", "!=", "||":
					toks = append(toks, Token{Kind: TSymbol, Text: two, Pos: start})
					i += 2
					continue
				}
			}
			switch c {
			case '(', ')', ',', '*', '+', '-', '/', '%', '=', '<', '>', '.', ';':
				toks = append(toks, Token{Kind: TSymbol, Text: input[i : i+1], Pos: start})
				i++
			default:
				return nil, fmt.Errorf("sql: illegal character %q at offset %d", c, start)
			}
		}
	}
	toks = append(toks, Token{Kind: TEOF, Pos: n})
	return toks, nil
}

// stringLiteral scans a quoted string whose body starts at i. It returns
// the unescaped text (a doubled quote stands for one), the offset after
// the closing quote, and false when the string is unterminated. A literal
// without escapes is returned as a substring of the input.
func stringLiteral(input string, i int) (string, int, bool) {
	start := i
	for i < len(input) {
		if input[i] != '\'' {
			i++
			continue
		}
		if i+1 < len(input) && input[i+1] == '\'' {
			break // an escaped quote: build the text below
		}
		return input[start:i], i + 1, true
	}
	var sb strings.Builder
	i = start
	for i < len(input) {
		if input[i] == '\'' {
			if i+1 < len(input) && input[i+1] == '\'' {
				sb.WriteByte('\'')
				i += 2
				continue
			}
			return sb.String(), i + 1, true
		}
		sb.WriteByte(input[i])
		i++
	}
	return "", i, false
}

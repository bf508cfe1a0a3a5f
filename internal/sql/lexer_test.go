package sql

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unicode"
)

// lexRef is the lexer before keyword classification moved to an ASCII
// stack buffer and string literals to substrings. Lex must produce the
// same tokens and the same errors.
func lexRef(input string) ([]Token, error) {
	var toks []Token
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
		case unicode.IsLetter(rune(c)) || c == '_':
			start := i
			for i < n && (unicode.IsLetter(rune(input[i])) || unicode.IsDigit(rune(input[i])) || input[i] == '_') {
				i++
			}
			word := input[start:i]
			up := strings.ToUpper(word)
			if _, ok := keywords[up]; ok {
				toks = append(toks, Token{Kind: TKeyword, Text: up, Pos: start})
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
			i++
			var sb strings.Builder
			closed := false
			for i < n {
				if input[i] == '\'' {
					if i+1 < n && input[i+1] == '\'' {
						sb.WriteByte('\'')
						i += 2
						continue
					}
					i++
					closed = true
					break
				}
				sb.WriteByte(input[i])
				i++
			}
			if !closed {
				return nil, fmt.Errorf("sql: unterminated string at offset %d", start)
			}
			toks = append(toks, Token{Kind: TString, Text: sb.String(), Pos: start})
		default:
			start := i
			two := ""
			if i+1 < n {
				two = input[i : i+2]
			}
			switch two {
			case "<=", ">=", "<>", "!=", "||":
				toks = append(toks, Token{Kind: TSymbol, Text: two, Pos: start})
				i += 2
				continue
			}
			switch c {
			case '(', ')', ',', '*', '+', '-', '/', '%', '=', '<', '>', '.', ';':
				toks = append(toks, Token{Kind: TSymbol, Text: string(c), Pos: start})
				i++
			default:
				return nil, fmt.Errorf("sql: illegal character %q at offset %d", c, start)
			}
		}
	}
	toks = append(toks, Token{Kind: TEOF, Pos: n})
	return toks, nil
}

var lexSeeds = []string{
	"SELECT a, t1.b FROM t1 WHERE a <= 'x''y' -- comment\n AND b <> 1.5e3",
	"select * from t0 where not (c0 > 1.0) is null",
	"SELECT DISTINCT c0 FROM t0 INTERSECT SELECT c1 FROM t1 ORDER BY 1 DESC LIMIT 3 OFFSET 1;",
	"CREATE TABLE t0 (c0 INT PRIMARY KEY, c1 VARCHAR, c2 boolean)",
	"INSERT INTO t0 VALUES (1, 'a:1', TRUE), (NULL, '', FALSE)",
	"EXPLAIN ANALYZE FORMAT JSON SELECT 1",
	"ſelect ıs Straße éclair _x9 intersecting",
	"SELECT 'oops",
	"SELECT @x",
	"a || b != c >= .5 <> 1e+3 2E-",
	"\xff\xfe SELECT \xc3\xa9",
	"",
}

func FuzzLex(f *testing.F) {
	for _, s := range lexSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		got, gotErr := Lex(input)
		want, wantErr := lexRef(input)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("Lex(%q) error %v, reference %v", input, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Lex(%q) =\n%v\nreference\n%v", input, got, want)
		}
	})
}

// TestLexAllocs guards the lexer's allocation profile: the presized
// token slice and nothing else, for a campaign-style query whose string
// literals have no escapes.
func TestLexAllocs(t *testing.T) {
	q := "SELECT t0.c0, c1 FROM t0 WHERE (t0.c1 > 3) AND NOT (c2 = 'abc') OR c0 IS NULL ORDER BY c0 DESC LIMIT 5"
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Lex(q); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("Lex: %.1f allocs per call, want 1", allocs)
	}
}

package jsontext

import (
	"fmt"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// Scanner is a streaming JSON token walker over an input string. Callers
// drive it by grammar: ScanObject hands each key to a callback that
// consumes the key's value, ScanArray does the same per element, and the
// scalar methods consume one value each. Nothing builds a generic
// map[string]any / []any tree: object keys and escape-free strings are
// substrings of the input, and numbers are returned as literal text.
//
// The scanner accepts exactly the JSON grammar (strict number syntax,
// escape validation, no control characters inside strings), so malformed
// input fails instead of silently producing half a value. It does not
// require EOF after the top-level value, matching json.Decoder.Decode;
// callers that want json.Unmarshal's strictness call RequireEOF. One
// deliberate divergence from encoding/json: raw string bytes pass through
// without invalid-UTF-8 coercion to U+FFFD, so a caller that must agree
// with encoding/json checks utf8.ValidString on what it keeps.
type Scanner struct {
	// S is the input; Pos is the byte offset of the next unread byte.
	S   string
	Pos int
	// Interner, when non-nil, interns the strings the scanner must
	// materialize (escaped strings), so repeated values share one copy.
	// Zero-copy substrings bypass it: interning them would add a copy
	// rather than remove one.
	Interner Interner
	depth    int
}

// Interner is the interning hook of Scanner.Interner.
type Interner interface {
	Intern(s string) string
}

// maxDepth bounds object/array nesting, like encoding/json's decoder
// limit, so adversarial input exhausts neither the scanner's nor its
// callers' recursion.
const maxDepth = 10000

// NewScanner returns a scanner positioned at the start of s.
func NewScanner(s string) Scanner { return Scanner{S: s} }

// errf reports a scan error with the current byte offset.
func (sc *Scanner) errf(format string, args ...any) error {
	return fmt.Errorf("json offset %d: %s", sc.Pos, fmt.Sprintf(format, args...))
}

// ErrEOF is the error for input that ends inside a value.
var ErrEOF = fmt.Errorf("json: unexpected end of input")

// skipSpace advances past insignificant whitespace. Indented JSON is
// mostly whitespace, so this is the scanner's single hottest loop; it
// runs on locals and writes Pos back once.
func (sc *Scanner) skipSpace() {
	s, i := sc.S, sc.Pos
	for i < len(s) {
		c := s[i]
		if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			break
		}
		i++
	}
	sc.Pos = i
}

// Peek returns the first significant byte without consuming it, or 0 at
// end of input.
func (sc *Scanner) Peek() byte {
	sc.skipSpace()
	if sc.Pos >= len(sc.S) {
		return 0
	}
	return sc.S[sc.Pos]
}

// expect consumes the next significant byte, which must be c.
func (sc *Scanner) expect(c byte) error {
	sc.skipSpace()
	if sc.Pos >= len(sc.S) {
		return ErrEOF
	}
	if sc.S[sc.Pos] != c {
		return sc.errf("want %q, have %q", c, sc.S[sc.Pos])
	}
	sc.Pos++
	return nil
}

// ScanObject parses an object, invoking fn once per key. fn must consume
// the key's value.
//
//uplan:hotpath
func (sc *Scanner) ScanObject(fn func(key string) error) error {
	if err := sc.expect('{'); err != nil {
		return err
	}
	sc.depth++
	defer func() { sc.depth-- }()
	if sc.depth > maxDepth {
		return sc.errf("exceeded max nesting depth")
	}
	if sc.Peek() == '}' {
		sc.Pos++
		return nil
	}
	for {
		key, err := sc.ScanString()
		if err != nil {
			return err
		}
		if err := sc.expect(':'); err != nil {
			return err
		}
		if err := fn(key); err != nil {
			return err
		}
		sc.skipSpace()
		if sc.Pos >= len(sc.S) {
			return ErrEOF
		}
		switch sc.S[sc.Pos] {
		case ',':
			sc.Pos++
		case '}':
			sc.Pos++
			return nil
		default:
			return sc.errf("want ',' or '}', have %q", sc.S[sc.Pos])
		}
	}
}

// ScanArray parses an array, invoking fn once per element with its index.
// fn must consume the element.
//
//uplan:hotpath
func (sc *Scanner) ScanArray(fn func(i int) error) error {
	if err := sc.expect('['); err != nil {
		return err
	}
	sc.depth++
	defer func() { sc.depth-- }()
	if sc.depth > maxDepth {
		return sc.errf("exceeded max nesting depth")
	}
	if sc.Peek() == ']' {
		sc.Pos++
		return nil
	}
	for i := 0; ; i++ {
		if err := fn(i); err != nil {
			return err
		}
		sc.skipSpace()
		if sc.Pos >= len(sc.S) {
			return ErrEOF
		}
		switch sc.S[sc.Pos] {
		case ',':
			sc.Pos++
		case ']':
			sc.Pos++
			return nil
		default:
			return sc.errf("want ',' or ']', have %q", sc.S[sc.Pos])
		}
	}
}

// ScanString parses a JSON string. Strings without escapes — the common
// case for both object keys and values — are returned as substrings of
// the input without allocating.
//
//uplan:hotpath
func (sc *Scanner) ScanString() (string, error) {
	if err := sc.expect('"'); err != nil {
		return "", err
	}
	s := sc.S
	start := sc.Pos
	for i := start; i < len(s); i++ {
		c := s[i]
		if c == '"' {
			sc.Pos = i + 1
			return s[start:i], nil
		}
		if c == '\\' {
			sc.Pos = i
			return sc.unescapeString(start)
		}
		if c < 0x20 {
			sc.Pos = i
			return "", sc.errf("control character %#x in string", c)
		}
	}
	sc.Pos = len(s)
	return "", ErrEOF
}

// unescapeString handles the slow path of ScanString: sc.Pos sits on the
// first backslash, start marks the byte after the opening quote.
//
//uplan:hotpath
func (sc *Scanner) unescapeString(start int) (string, error) {
	// Size the builder to the string's raw length, found by skipping to
	// the closing quote: escapes only shrink, so the decode makes exactly
	// one allocation, and the buffer Builder.String keeps is no larger
	// than the string's own source.
	end := sc.Pos
	for end < len(sc.S) && sc.S[end] != '"' {
		if sc.S[end] == '\\' {
			end++
		}
		end++
	}
	var b strings.Builder
	b.Grow(min(end, len(sc.S)) - start)
	b.WriteString(sc.S[start:sc.Pos])
	for sc.Pos < len(sc.S) {
		c := sc.S[sc.Pos]
		switch {
		case c == '"':
			sc.Pos++
			if sc.Interner != nil {
				return sc.Interner.Intern(b.String()), nil
			}
			return b.String(), nil
		case c == '\\':
			sc.Pos++
			if sc.Pos >= len(sc.S) {
				return "", ErrEOF
			}
			esc := sc.S[sc.Pos]
			sc.Pos++
			switch esc {
			case '"', '\\', '/':
				b.WriteByte(esc)
			case 'b':
				b.WriteByte('\b')
			case 'f':
				b.WriteByte('\f')
			case 'n':
				b.WriteByte('\n')
			case 'r':
				b.WriteByte('\r')
			case 't':
				b.WriteByte('\t')
			case 'u':
				r, err := sc.scanHexRune()
				if err != nil {
					return "", err
				}
				if utf16.IsSurrogate(r) {
					// Like encoding/json: consume the following \u escape
					// only when it completes the pair; otherwise emit one
					// replacement rune and let the main loop reprocess the
					// second escape on its own, so the escape sequence
					// D800 D800 DC00 decodes to U+FFFD then U+10000.
					paired := false
					if sc.Pos+1 < len(sc.S) && sc.S[sc.Pos] == '\\' && sc.S[sc.Pos+1] == 'u' {
						save := sc.Pos
						sc.Pos += 2
						r2, err := sc.scanHexRune()
						if err != nil {
							return "", err
						}
						if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
							r, paired = dec, true
						} else {
							sc.Pos = save
						}
					}
					if !paired {
						r = utf8.RuneError
					}
				}
				b.WriteRune(r)
			default:
				return "", sc.errf("invalid escape \\%c", esc)
			}
		case c < 0x20:
			return "", sc.errf("control character %#x in string", c)
		default:
			// Copy the run up to the next quote, escape or control
			// character in one write.
			j := sc.Pos + 1
			for j < len(sc.S) {
				if c := sc.S[j]; c == '"' || c == '\\' || c < 0x20 {
					break
				}
				j++
			}
			b.WriteString(sc.S[sc.Pos:j])
			sc.Pos = j
		}
	}
	return "", ErrEOF
}

// RequireEOF errors unless only whitespace remains, for callers that
// want json.Unmarshal's rejection of trailing garbage. It checks the
// position directly — Peek's 0 return would conflate a literal NUL byte
// with end of input.
func (sc *Scanner) RequireEOF() error {
	sc.skipSpace()
	if sc.Pos < len(sc.S) {
		return sc.errf("trailing data after plan")
	}
	return nil
}

// scanHexRune reads the four hex digits of a \u escape.
func (sc *Scanner) scanHexRune() (rune, error) {
	if sc.Pos+4 > len(sc.S) {
		return 0, ErrEOF
	}
	var r rune
	for i := 0; i < 4; i++ {
		c := sc.S[sc.Pos+i]
		switch {
		case c >= '0' && c <= '9':
			r = r<<4 | rune(c-'0')
		case c >= 'a' && c <= 'f':
			r = r<<4 | rune(c-'a'+10)
		case c >= 'A' && c <= 'F':
			r = r<<4 | rune(c-'A'+10)
		default:
			return 0, sc.errf("invalid \\u escape digit %q", c)
		}
	}
	sc.Pos += 4
	return r, nil
}

// ScanNumberLiteral validates and consumes a JSON number, returning its
// literal text as a substring of the input.
func (sc *Scanner) ScanNumberLiteral() (string, error) {
	sc.skipSpace()
	start := sc.Pos
	i := sc.Pos
	n := len(sc.S)
	if i < n && sc.S[i] == '-' {
		i++
	}
	switch {
	case i < n && sc.S[i] == '0':
		i++
	case i < n && sc.S[i] >= '1' && sc.S[i] <= '9':
		for i < n && sc.S[i] >= '0' && sc.S[i] <= '9' {
			i++
		}
	default:
		sc.Pos = i
		return "", sc.errf("invalid number")
	}
	if i < n && sc.S[i] == '.' {
		i++
		if i >= n || sc.S[i] < '0' || sc.S[i] > '9' {
			sc.Pos = i
			return "", sc.errf("invalid number: no digits after '.'")
		}
		for i < n && sc.S[i] >= '0' && sc.S[i] <= '9' {
			i++
		}
	}
	if i < n && (sc.S[i] == 'e' || sc.S[i] == 'E') {
		i++
		if i < n && (sc.S[i] == '+' || sc.S[i] == '-') {
			i++
		}
		if i >= n || sc.S[i] < '0' || sc.S[i] > '9' {
			sc.Pos = i
			return "", sc.errf("invalid number: empty exponent")
		}
		for i < n && sc.S[i] >= '0' && sc.S[i] <= '9' {
			i++
		}
	}
	sc.Pos = i
	return sc.S[start:i], nil
}

// ScanLiteral consumes the keyword lit ("true", "false", "null").
func (sc *Scanner) ScanLiteral(lit string) error {
	sc.skipSpace()
	if !strings.HasPrefix(sc.S[sc.Pos:], lit) {
		return sc.errf("invalid literal")
	}
	sc.Pos += len(lit)
	return nil
}

// ScanStringValue consumes the next value. If it is a JSON string it
// returns (decoded, true); any other valid value is consumed and reported
// as (_, false).
func (sc *Scanner) ScanStringValue() (string, bool, error) {
	if sc.Peek() == '"' {
		s, err := sc.ScanString()
		return s, err == nil, err
	}
	return "", false, sc.SkipValue()
}

// SkipValue consumes and validates any JSON value without materializing it.
func (sc *Scanner) SkipValue() error {
	switch sc.Peek() {
	case 0:
		return ErrEOF
	case 'n':
		return sc.ScanLiteral("null")
	case 't':
		return sc.ScanLiteral("true")
	case 'f':
		return sc.ScanLiteral("false")
	case '"':
		_, err := sc.ScanString()
		return err
	case '{':
		return sc.ScanObject(func(string) error { return sc.SkipValue() })
	case '[':
		return sc.ScanArray(func(int) error { return sc.SkipValue() })
	default:
		_, err := sc.ScanNumberLiteral()
		return err
	}
}

// ScanRaw consumes the next value and returns its raw text, a substring
// of the input from its first to its last byte.
func (sc *Scanner) ScanRaw() (string, error) {
	sc.skipSpace()
	start := sc.Pos
	if err := sc.SkipValue(); err != nil {
		return "", err
	}
	return sc.S[start:sc.Pos], nil
}

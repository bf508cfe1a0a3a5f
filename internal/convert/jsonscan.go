package convert

import (
	"strconv"
	"strings"

	"uplan/internal/core"
	"uplan/internal/jsontext"
)

// jsonScan is the shared streaming JSON walker (jsontext.Scanner) with
// the conversion-specific parts on top. The structured converters
// (PostgreSQL, MySQL, TiDB, MongoDB, Neo4j) feed core.Node construction
// directly from it, so a conversion never builds the intermediate
// map[string]any / []any trees that encoding/json's generic decoding
// allocates: object keys and escape-free strings are substrings of the
// input, scalars parse in place, and composite property values are
// captured as compacted raw JSON in a single pass.
//
// Beyond the grammar jsontext.Scanner enforces, composite property values
// keep their source key order and escaping (see scanRawCompact) rather
// than being re-marshaled.
type jsonScan struct {
	jsontext.Scanner
	// ar, when non-nil, interns the strings the scanner must materialize
	// (escaped strings, re-compacted composites), so repeated dynamic
	// values across a batch share one canonical copy instead of retaining
	// a fresh build each.
	ar *core.PlanArena
}

// newJSONScan returns a scanner over s that interns into ar (nil: no
// interning).
func newJSONScan(s string, ar *core.PlanArena) jsonScan {
	sc := jsonScan{Scanner: jsontext.NewScanner(s), ar: ar}
	if ar != nil {
		sc.Interner = ar
	}
	return sc
}

// scanValue consumes any JSON value and converts it with the scalar
// semantics the map-based decoders used (scalarFromJSON): null → Null,
// booleans → Bool, numbers → Num (literal text kept when the value
// overflows float64), strings → parseScalar of the decoded text. A
// composite value (object or array) becomes a string of its compacted raw
// JSON — captured in one pass instead of the decode-then-re-Marshal round
// trip of the legacy path.
func (sc *jsonScan) scanValue() (core.Value, error) {
	switch sc.Peek() {
	case 0:
		return core.Null(), jsontext.ErrEOF
	case 'n':
		return core.Null(), sc.ScanLiteral("null")
	case 't':
		return core.BoolVal(true), sc.ScanLiteral("true")
	case 'f':
		return core.BoolVal(false), sc.ScanLiteral("false")
	case '"':
		s, err := sc.ScanString()
		if err != nil {
			return core.Null(), err
		}
		return parseScalar(s), nil
	case '{', '[':
		raw, err := sc.scanRawCompact()
		if err != nil {
			return core.Null(), err
		}
		return core.Str(raw), nil
	default:
		lit, err := sc.ScanNumberLiteral()
		if err != nil {
			return core.Null(), err
		}
		f, perr := strconv.ParseFloat(lit, 64)
		if perr != nil {
			return core.Str(lit), nil
		}
		return core.Num(f), nil
	}
}

// scanRawCompact consumes the next composite value and returns its raw
// JSON with insignificant whitespace removed. When the input is already
// compact the result is a substring and nothing is copied.
func (sc *jsonScan) scanRawCompact() (string, error) {
	raw, err := sc.ScanRaw()
	if err != nil {
		return "", err
	}
	if !hasJSONSpace(raw) {
		return raw, nil
	}
	var b strings.Builder
	b.Grow(len(raw))
	inString := false
	for i := 0; i < len(raw); i++ {
		c := raw[i]
		if inString {
			b.WriteByte(c)
			if c == '\\' {
				// Copy the escaped byte verbatim; ScanRaw already
				// validated the escape sequence.
				i++
				if i < len(raw) {
					b.WriteByte(raw[i])
				}
			} else if c == '"' {
				inString = false
			}
			continue
		}
		switch c {
		case ' ', '\t', '\n', '\r':
			continue
		case '"':
			inString = true
		}
		b.WriteByte(c)
	}
	return sc.ar.Intern(b.String()), nil
}

// hasJSONSpace reports whether s contains any byte scanRawCompact would
// strip outside of strings; a quick scan that tolerates false positives
// (whitespace inside strings just means one extra copy).
func hasJSONSpace(s string) bool {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ' ', '\t', '\n', '\r':
			return true
		}
	}
	return false
}

package explain

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"unicode/utf8"
)

// The JSON formats are written by appending to one byte slice. The output
// is byte-identical to json.MarshalIndent(doc, "", "  ") over the
// map[string]any documents these writers replaced: object members in
// sorted key order, a later member replacing an earlier one of the same
// key (as a map assignment does), encoding/json's float formatting and
// its HTML-safe string escaping.

// jsonWriter accumulates one document and the first error met.
type jsonWriter struct {
	b   []byte
	err error
}

func newJSONWriter() *jsonWriter {
	return &jsonWriter{b: make([]byte, 0, 1024)}
}

// result returns the document, or the first error met, attributed to the
// named format.
func (w *jsonWriter) result(format string) (string, error) {
	if w.err != nil {
		return "", fmt.Errorf("explain: %s json: %w", format, w.err)
	}
	return string(w.b), nil
}

// fieldKind says which jsonField member holds the value.
type fieldKind uint8

const (
	fieldString fieldKind = iota // str
	fieldValue                   // val: a property value
	fieldNested                  // nested(w, node, depth)
)

// jsonField is one object member.
type jsonField struct {
	key    string
	kind   fieldKind
	str    string
	val    any
	node   *Node
	nested func(w *jsonWriter, n *Node, depth int)
}

// jsonObject collects an object's members with map semantics.
type jsonObject []jsonField

func (o *jsonObject) set(f jsonField) {
	for i := range *o {
		if (*o)[i].key == f.key {
			(*o)[i] = f
			return
		}
	}
	*o = append(*o, f)
}

func (o *jsonObject) setString(key, s string) {
	o.set(jsonField{key: key, kind: fieldString, str: s})
}

func (o *jsonObject) setValue(key string, v any) {
	o.set(jsonField{key: key, kind: fieldValue, val: v})
}

func (o *jsonObject) setNested(key string, n *Node, nested func(*jsonWriter, *Node, int)) {
	o.set(jsonField{key: key, kind: fieldNested, node: n, nested: nested})
}

// object writes the members sorted by key, the object itself indented at
// depth.
//
//uplan:hotpath
func (w *jsonWriter) object(o jsonObject, depth int) {
	if len(o) == 0 {
		w.b = append(w.b, "{}"...)
		return
	}
	for i := 1; i < len(o); i++ {
		for j := i; j > 0 && o[j].key < o[j-1].key; j-- {
			o[j], o[j-1] = o[j-1], o[j]
		}
	}
	w.b = append(w.b, '{')
	for i := range o {
		if i > 0 {
			w.b = append(w.b, ',')
		}
		w.newline(depth + 1)
		w.key(o[i].key)
		switch o[i].kind {
		case fieldString:
			w.b = appendJSONString(w.b, o[i].str)
		case fieldValue:
			w.value(o[i].val, depth+1)
		case fieldNested:
			o[i].nested(w, o[i].node, depth+1)
		}
	}
	w.newline(depth)
	w.b = append(w.b, '}')
}

// nodeArray writes an array with one element per child of n, each
// written by elem.
func (w *jsonWriter) nodeArray(n *Node, depth int, elem func(*jsonWriter, *Node, int)) {
	w.b = append(w.b, '[')
	for i, c := range n.Children {
		if i > 0 {
			w.b = append(w.b, ',')
		}
		w.newline(depth + 1)
		elem(w, c, depth+1)
	}
	w.newline(depth)
	w.b = append(w.b, ']')
}

func (w *jsonWriter) newline(depth int) {
	w.b = append(w.b, '\n')
	for i := 0; i < depth; i++ {
		w.b = append(w.b, "  "...)
	}
}

func (w *jsonWriter) key(k string) {
	w.b = appendJSONString(w.b, k)
	w.b = append(w.b, ':', ' ')
}

// value writes a property value. Types other than the ones the shapers
// produce go through encoding/json, indented to depth.
//
//uplan:hotpath
func (w *jsonWriter) value(v any, depth int) {
	switch t := v.(type) {
	case nil:
		w.b = append(w.b, "null"...)
	case string:
		w.b = appendJSONString(w.b, t)
	case bool:
		w.b = strconv.AppendBool(w.b, t)
	case int:
		w.b = strconv.AppendInt(w.b, int64(t), 10)
	case int64:
		w.b = strconv.AppendInt(w.b, t, 10)
	case float64:
		w.float(t)
	default:
		data, err := json.Marshal(t)
		if err != nil {
			w.fail(err)
			return
		}
		var buf bytes.Buffer
		if err := json.Indent(&buf, data, strings.Repeat("  ", depth), "  "); err != nil {
			w.fail(err)
			return
		}
		w.b = append(w.b, buf.Bytes()...)
	}
}

// float formats like encoding/json: ES6 number style, and an
// UnsupportedValueError for NaN and infinities.
func (w *jsonWriter) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		w.fail(&json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)})
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(w.b, f, format, -1, 64)
	if format == 'e' {
		// Clean up e-09 to e-9.
		n := len(b)
		if n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	w.b = b
}

func (w *jsonWriter) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string the way encoding/json
// does with HTML escaping on: <, > and & become \u003c, \u003e and
// \u0026, U+2028 and U+2029 are escaped, and invalid UTF-8 becomes
// \ufffd.
//
//uplan:hotpath
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

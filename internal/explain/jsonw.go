package explain

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"

	"uplan/internal/jsontext"
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
			w.b = jsontext.AppendString(w.b, o[i].str)
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
	w.b = jsontext.AppendString(w.b, k)
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
		w.b = jsontext.AppendString(w.b, t)
	case bool:
		w.b = strconv.AppendBool(w.b, t)
	case int:
		w.b = strconv.AppendInt(w.b, int64(t), 10)
	case int64:
		w.b = strconv.AppendInt(w.b, t, 10)
	case float64:
		w.float(t)
	default:
		w.marshal(t, depth)
	}
}

// marshal writes a value of a type the shapers do not produce through
// encoding/json, indented to depth. It is the writer's cold path.
func (w *jsonWriter) marshal(v any, depth int) {
	data, err := json.Marshal(v)
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

// float formats like encoding/json: ES6 number style, and an
// UnsupportedValueError for NaN and infinities.
func (w *jsonWriter) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		w.fail(&json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)})
		return
	}
	w.b = jsontext.AppendFloat(w.b, f)
}

func (w *jsonWriter) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

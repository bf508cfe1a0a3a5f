package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"uplan/internal/jsontext"
)

// This file implements the structured JSON format of the unified query plan
// representation. The schema mirrors the EBNF directly:
//
//	{
//	  "source": "postgresql",
//	  "tree": {
//	    "operation": {"category": "Producer", "name": "Full Table Scan"},
//	    "properties": [
//	      {"category": "Cardinality", "name": "rows", "value": 1050}
//	    ],
//	    "children": [ ... ]
//	  },
//	  "properties": [
//	    {"category": "Status", "name": "planning_time", "value": 0.124}
//	  ]
//	}
//
// Unknown JSON fields are ignored on decode (forward compatibility);
// the "tree" field is optional (InfluxDB-style property-only plans).

type jsonPlan struct {
	Source     string         `json:"source,omitempty"`
	Tree       *jsonNode      `json:"tree,omitempty"`
	Properties []jsonProperty `json:"properties,omitempty"`
}

type jsonNode struct {
	Operation  jsonOperation  `json:"operation"`
	Properties []jsonProperty `json:"properties,omitempty"`
	Children   []*jsonNode    `json:"children,omitempty"`
}

type jsonOperation struct {
	Category string `json:"category"`
	Name     string `json:"name"`
}

type jsonProperty struct {
	Category string          `json:"category"`
	Name     string          `json:"name"`
	Value    json.RawMessage `json:"value"`
}

// MarshalJSON implements json.Marshaler for Plan.
func (p *Plan) MarshalJSON() ([]byte, error) {
	// Typical plans run to a few KiB; starting at 1 KiB skips the small
	// regrowths.
	return p.AppendJSON(make([]byte, 0, 1024)), nil
}

// MarshalJSONIndent renders the plan as indented JSON.
func (p *Plan) MarshalJSONIndent() ([]byte, error) {
	var buf bytes.Buffer
	if err := json.Indent(&buf, p.AppendJSON(nil), "", "  "); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// AppendJSON appends the plan's compact canonical JSON to dst and returns
// the extended slice. The bytes are exactly what json.Marshal produces
// for the jsonPlan tree above: the omitempty fields dropped when empty,
// encoding/json's float format with NaN and the infinities written as
// null, and its HTML-safe string escaping. It allocates nothing when dst
// has room.
//
//uplan:hotpath
func (p *Plan) AppendJSON(dst []byte) []byte {
	dst = append(dst, '{')
	sep := false
	if p.Source != "" {
		dst = append(dst, `"source":`...)
		dst = jsontext.AppendString(dst, p.Source)
		sep = true
	}
	if p.Root != nil {
		if sep {
			dst = append(dst, ',')
		}
		dst = append(dst, `"tree":`...)
		dst = appendNodeJSON(dst, p.Root)
		sep = true
	}
	if len(p.Properties) > 0 {
		if sep {
			dst = append(dst, ',')
		}
		dst = appendPropsJSON(dst, p.Properties)
	}
	return append(dst, '}')
}

// appendNodeJSON writes one node; a nil child is written as null, as the
// reflective encoder writes a nil *jsonNode.
//
//uplan:hotpath
func appendNodeJSON(dst []byte, n *Node) []byte {
	if n == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, `{"operation":{"category":`...)
	dst = jsontext.AppendString(dst, string(n.Op.Category))
	dst = append(dst, `,"name":`...)
	dst = jsontext.AppendString(dst, n.Op.Name)
	dst = append(dst, '}')
	if len(n.Properties) > 0 {
		dst = append(dst, ',')
		dst = appendPropsJSON(dst, n.Properties)
	}
	if len(n.Children) > 0 {
		dst = append(dst, `,"children":[`...)
		for i, c := range n.Children {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendNodeJSON(dst, c)
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// appendPropsJSON writes a non-empty "properties" member.
//
//uplan:hotpath
func appendPropsJSON(dst []byte, props []Property) []byte {
	dst = append(dst, `"properties":[`...)
	for i := range props {
		pr := &props[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"category":`...)
		dst = jsontext.AppendString(dst, string(pr.Category))
		dst = append(dst, `,"name":`...)
		dst = jsontext.AppendString(dst, pr.Name)
		dst = append(dst, `,"value":`...)
		dst = appendValueJSON(dst, pr.Value)
		dst = append(dst, '}')
	}
	return append(dst, ']')
}

// appendValueJSON writes a scalar Value. Non-finite numbers, which
// encoding/json rejects, become null.
//
//uplan:hotpath
func appendValueJSON(dst []byte, v Value) []byte {
	switch v.Kind {
	case KindString:
		return jsontext.AppendString(dst, v.Str)
	case KindNumber:
		if math.IsNaN(v.Num) || math.IsInf(v.Num, 0) {
			return append(dst, "null"...)
		}
		return jsontext.AppendFloat(dst, v.Num)
	case KindBool:
		return strconv.AppendBool(dst, v.Bool)
	default:
		return append(dst, "null"...)
	}
}

// UnmarshalJSON implements json.Unmarshaler for Plan.
func (p *Plan) UnmarshalJSON(data []byte) error {
	var jp jsonPlan
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	if err := dec.Decode(&jp); err != nil {
		return fmt.Errorf("core: invalid unified plan JSON: %w", err)
	}
	props, err := propsFromJSON(jp.Properties)
	if err != nil {
		return err
	}
	p.Source = jp.Source
	p.Properties = props
	var conv func(jn *jsonNode) (*Node, error)
	conv = func(jn *jsonNode) (*Node, error) {
		if jn == nil {
			return nil, nil
		}
		props, err := propsFromJSON(jn.Properties)
		if err != nil {
			return nil, err
		}
		n := &Node{
			Op: Operation{
				Category: OperationCategory(jn.Operation.Category),
				Name:     jn.Operation.Name,
			},
			Properties: props,
		}
		for _, jc := range jn.Children {
			c, err := conv(jc)
			if err != nil {
				return nil, err
			}
			n.Children = append(n.Children, c)
		}
		return n, nil
	}
	root, err := conv(jp.Tree)
	if err != nil {
		return err
	}
	p.Root = root
	return nil
}

func propsFromJSON(jprops []jsonProperty) ([]Property, error) {
	var out []Property
	for _, jp := range jprops {
		v, err := valueFromRaw(jp.Value)
		if err != nil {
			return nil, fmt.Errorf("core: property %q: %w", jp.Name, err)
		}
		out = append(out, Property{
			Category: PropertyCategory(jp.Category),
			Name:     jp.Name,
			Value:    v,
		})
	}
	return out, nil
}

func valueFromRaw(raw json.RawMessage) (Value, error) {
	if len(raw) == 0 {
		return Null(), nil
	}
	var any interface{}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	if err := dec.Decode(&any); err != nil {
		return Value{}, err
	}
	switch t := any.(type) {
	case nil:
		return Null(), nil
	case string:
		return Str(t), nil
	case bool:
		return BoolVal(t), nil
	case json.Number:
		f, err := t.Float64()
		if err != nil {
			return Value{}, err
		}
		return Num(f), nil
	default:
		// Composite values (arrays/objects) are flattened to their JSON
		// text; the grammar only supports scalars, but tolerating composites
		// keeps converters for exotic plans lossless.
		return Str(string(raw)), nil
	}
}

// ParseJSON parses a unified plan from its JSON serialization.
func ParseJSON(data []byte) (*Plan, error) {
	p := &Plan{}
	if err := p.UnmarshalJSON(data); err != nil {
		return nil, err
	}
	return p, nil
}

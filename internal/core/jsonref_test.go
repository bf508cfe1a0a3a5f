package core

import (
	"encoding/json"
	"math"
	"strconv"
)

// The reflective plan encoder as it was before AppendJSON: the plan is
// copied into the jsonPlan tree and json.Marshal renders it. It is the
// reference the golden tests hold AppendJSON to, byte for byte.

// MarshalJSONReference renders p through the reflective encoder.
func MarshalJSONReference(p *Plan) ([]byte, error) {
	return json.Marshal(p.toJSON())
}

// MarshalJSONIndentReference is MarshalJSONReference, indented.
func MarshalJSONIndentReference(p *Plan) ([]byte, error) {
	return json.MarshalIndent(p.toJSON(), "", "  ")
}

func (p *Plan) toJSON() jsonPlan {
	jp := jsonPlan{Source: p.Source, Properties: propsToJSON(p.Properties)}
	var conv func(n *Node) *jsonNode
	conv = func(n *Node) *jsonNode {
		if n == nil {
			return nil
		}
		jn := &jsonNode{
			Operation:  jsonOperation{Category: string(n.Op.Category), Name: n.Op.Name},
			Properties: propsToJSON(n.Properties),
		}
		for _, c := range n.Children {
			jn.Children = append(jn.Children, conv(c))
		}
		return jn
	}
	jp.Tree = conv(p.Root)
	return jp
}

func propsToJSON(props []Property) []jsonProperty {
	if len(props) == 0 {
		return nil
	}
	out := make([]jsonProperty, 0, len(props))
	for _, pr := range props {
		out = append(out, jsonProperty{
			Category: string(pr.Category),
			Name:     pr.Name,
			Value:    valueToRaw(pr.Value),
		})
	}
	return out
}

// valueToRaw encodes a scalar Value as raw JSON. Strings go through
// json.Marshal for its escaping; non-finite numbers degrade to empty raw
// (written as null).
func valueToRaw(v Value) json.RawMessage {
	switch v.Kind {
	case KindString:
		raw, _ := json.Marshal(v.Str)
		return raw
	case KindNumber:
		if math.IsNaN(v.Num) || math.IsInf(v.Num, 0) {
			return nil
		}
		// Mirror encoding/json's float encoding byte-for-byte: 'f' form in
		// the human range, 'e' with a compacted exponent outside it.
		abs := math.Abs(v.Num)
		format := byte('f')
		if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
			format = 'e'
		}
		b := strconv.AppendFloat(nil, v.Num, format, -1, 64)
		if format == 'e' {
			if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
				b[n-2] = b[n-1]
				b = b[:n-1]
			}
		}
		return b
	case KindBool:
		if v.Bool {
			return json.RawMessage("true")
		}
		return json.RawMessage("false")
	default:
		return json.RawMessage("null")
	}
}

// RaceEnabled exports raceEnabled to the external test package.
const RaceEnabled = raceEnabled

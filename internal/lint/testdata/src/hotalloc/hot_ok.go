package hotalloc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"uplan/internal/convert"
	"uplan/internal/core"
)

// This file is the false-positive corpus: the same idioms off the hot
// path must produce zero diagnostics.

func coldSplit(s string) []string {
	return strings.Split(s, "\n")
}

func coldConvert(reg *core.Registry, raw string) (*core.Plan, error) {
	c, err := convert.For("postgresql", reg)
	if err != nil {
		return nil, err
	}
	return c.Convert(raw)
}

func coldSprintf(keys []string) string {
	var out string
	for _, k := range keys {
		out += fmt.Sprintf("%s;", k)
	}
	return out
}

// hotSplitOnComma splits on a delimiter other than newline: only the
// line-iteration idiom is flagged.
//
//uplan:hotpath
func hotSplitOnComma(s string) []string {
	return strings.Split(s, ",")
}

// coldMarshal is the encoding/json fallback kept in an unmarked
// function: allowed.
func coldMarshal(v any, data []byte) ([]byte, error) {
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&v); err != nil {
		return nil, err
	}
	return json.Marshal(v)
}

// hotCallsCold reaches encoding/json only through an unmarked helper,
// and uses the package's non-reflective parts directly: allowed.
//
//uplan:hotpath
func hotCallsCold(v any, data []byte) ([]byte, error) {
	if !json.Valid(data) {
		return nil, nil
	}
	var raw json.RawMessage = data
	_ = raw
	return coldMarshal(v, data)
}

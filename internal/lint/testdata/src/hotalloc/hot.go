// Package hotalloc exercises the hotalloc analyzer: the allocating
// idioms are flagged only inside //uplan:hotpath scopes.
package hotalloc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"uplan/internal/convert"
	"uplan/internal/core"
)

// hotConvert rebuilds its converter on every call.
//
//uplan:hotpath
func hotConvert(reg *core.Registry, raw string) (*core.Plan, error) {
	c, err := convert.For("postgresql", reg) // want `convert\.For rebuilds the converter per call`
	if err != nil {
		return nil, err
	}
	return c.Convert(raw)
}

// hotLines allocates a string-header slice per call just to count lines.
//
//uplan:hotpath
func hotLines(s string) int {
	lines := strings.Split(s, "\n") // want `strings\.Split over`
	return len(lines)
}

// hotSprintf formats inside the per-row loop.
//
//uplan:hotpath
func hotSprintf(keys []string) string {
	var out string
	for _, k := range keys {
		out += fmt.Sprintf("%s;", k) // want `fmt\.Sprintf inside a loop`
	}
	return out
}

// hotSprintfOnce formats once per call, outside any loop: allowed.
//
//uplan:hotpath
func hotSprintfOnce(k string) string {
	return fmt.Sprintf("label:%s", k)
}

// hotErrf builds an error inside a hot loop: error construction is the
// cold path even here, so fmt.Errorf is exempt.
//
//uplan:hotpath
func hotErrf(keys []string) error {
	for i, k := range keys {
		if k == "" {
			return fmt.Errorf("empty key at %d", i)
		}
	}
	return nil
}

// hotMarshal encodes and decodes reflectively on the hot path.
//
//uplan:hotpath
func hotMarshal(v any, data []byte) ([]byte, error) {
	out, err := json.Marshal(v) // want `json\.Marshal on a hot path`
	if err != nil {
		return nil, err
	}
	if _, err := json.MarshalIndent(v, "", "  "); err != nil { // want `json\.MarshalIndent on a hot path`
		return nil, err
	}
	if err := json.Unmarshal(data, &v); err != nil { // want `json\.Unmarshal on a hot path`
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data)) // want `json\.NewDecoder on a hot path`
	return out, dec.Decode(&v)
}

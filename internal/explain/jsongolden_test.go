package explain_test

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"uplan/internal/dbms"
	"uplan/internal/explain"
	"uplan/internal/sqlancer"
)

// TestJSONWritersMatchMarshalIndent holds the append-style JSON writers
// to the map[string]any + json.MarshalIndent serializers they replaced,
// byte for byte, on the plans every JSON-capable engine shapes for
// sqlancer queries, with and without ANALYZE actuals. The handwritten
// queries put <, > and & into predicates and string literals, which
// encoding/json escapes.
func TestJSONWritersMatchMarshalIndent(t *testing.T) {
	dialects := make([]string, 0, len(jsonRef))
	for d := range jsonRef {
		dialects = append(dialects, d)
	}
	sort.Strings(dialects)
	for _, dialect := range dialects {
		ref := jsonRef[dialect]
		e := dbms.MustNew(dialect)
		gen := sqlancer.New(21)
		for _, s := range gen.SchemaSQL(3, 8) {
			if _, err := e.Execute(s); err != nil {
				t.Fatalf("%s: %q: %v", dialect, s, err)
			}
		}
		if err := e.Analyze(); err != nil {
			t.Fatal(err)
		}
		queries := []string{
			"SELECT * FROM t0 WHERE c0 < 3 AND c1 > 'a&b<c>' OR c0 <> 2",
			"SELECT c0 FROM t1 WHERE c1 = '\u2028&\x01' AND c0 >= 1",
		}
		for i := 0; i < 520; i++ {
			queries = append(queries, gen.Query())
		}
		for _, analyze := range []bool{false, true} {
			compared := 0
			for _, q := range queries {
				native, err := e.NativePlan(q)
				if analyze {
					native, err = e.NativePlanAnalyzed(q)
				}
				if err != nil {
					continue
				}
				got, gotErr := explain.Serialize(native, explain.FormatJSON)
				want, wantErr := ref(native)
				if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("%s (analyze %v): %q:\ngot  %s\n%v\nwant %s\n%v", dialect, analyze, q, got, gotErr, want, wantErr)
				}
				compared++
			}
			if compared < 500 {
				t.Fatalf("%s (analyze %v): only %d plans compared, want >= 500", dialect, analyze, compared)
			}
		}
	}
}

// TestJSONWritersEdgeValues covers what generated plans rarely hold:
// escapes, extreme floats, NaN (an error, as in encoding/json), value
// types the writers hand to encoding/json, and properties whose keys
// collide with the members the serializers add themselves.
func TestJSONWritersEdgeValues(t *testing.T) {
	values := []any{
		"plain", "<>&\"\\\b\f\n\r\t\x01\x1f\x7f", "\u2028\u2029", "\xff\xfeé", "",
		0.0, math.Copysign(0, -1), 1e21, 1e20, 1e-6, 1e-7, 123456789.125, -2.5e-300,
		1, int64(-1 << 62), true, false, nil,
		[]string{"a", "<b>"}, map[string]int{"z": 1, "a": 2}, float32(0.1), uint8(7),
		math.NaN(), math.Inf(-1), make(chan int),
	}
	keys := []string{"Node Type", "Plans", "Parent Relationship", "stage", "inputStage",
		"operatorType", "Details", "rows", "actual_rows", "total_cost", "key", "condition",
		"detail", "index", "operator info", "a<b", "ok", "plan"}
	for i, v := range values {
		for _, root := range []bool{false, true} {
			p := edgePlan(v, keys, i)
			if !root {
				p.Root = nil
			}
			for dialect, ref := range jsonRef {
				p.Dialect = dialect
				got, gotErr := explain.Serialize(p, explain.FormatJSON)
				want, wantErr := ref(p)
				if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("%s, value %#v:\ngot  %s\n%v\nwant %s\n%v", dialect, v, got, gotErr, want, wantErr)
				}
			}
		}
	}
}

func edgePlan(v any, keys []string, salt int) *explain.Plan {
	leaf := explain.NewNode("Leaf")
	leaf.Object = "t<0>"
	for _, k := range keys {
		leaf.Add(k, v)
	}
	other := explain.NewNode("Other")
	other.Add("rows", 2.0).Add("total_cost", float64(salt))
	mid := explain.NewNode("Mid", leaf, other)
	mid.Add("total_cost", v).Add("read_cost", 1.5).Add("eval_cost", v)
	root := explain.NewNode("Root", mid)
	root.Object = "r&s"
	root.Task = "cop[tikv]"
	root.Add("total_cost", 3.25)
	return &explain.Plan{Root: root, PlanProps: []explain.Prop{
		{Key: "Planning Time", Val: v}, {Key: "plan", Val: "shadow"}, {Key: "ok", Val: v},
	}}
}

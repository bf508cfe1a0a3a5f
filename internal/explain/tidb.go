package explain

import (
	"fmt"
	"strconv"
	"strings"

	"uplan/internal/jsontext"
)

// TiDB serializations: the tabular EXPLAIN output (id/estRows/task/access
// object/operator info columns with └─ tree art) and the JSON rendering.

// TiDBTable renders TiDB's default tabular format.
func TiDBTable(p *Plan) string {
	var rows [][]string
	rows = append(rows, []string{"id", "estRows", "task", "access object", "operator info"})
	var walk func(n *Node, prefix string, last bool, root bool)
	walk = func(n *Node, prefix string, last bool, root bool) {
		id := n.Name
		if !root {
			connector := "├─"
			if last {
				connector = "└─"
			}
			id = prefix + connector + n.Name
		}
		est := ""
		if r, ok := n.Prop("rows"); ok {
			est = fmt.Sprintf("%.2f", toF(r))
		}
		task := n.Task
		if task == "" {
			task = "root"
		}
		obj := ""
		if n.Object != "" {
			obj = "table:" + n.Object
		}
		if ix, ok := n.Prop("index"); ok {
			if obj != "" {
				obj += ", "
			}
			obj += "index:" + FormatVal(ix)
		}
		info, _ := n.Prop("operator info")
		rows = append(rows, []string{id, est, task, obj, FormatVal(info)})
		childPrefix := prefix
		if !root {
			if last {
				childPrefix += "  "
			} else {
				childPrefix += "│ "
			}
		}
		for i, c := range n.Children {
			walk(c, childPrefix, i == len(n.Children)-1, false)
		}
	}
	if p.Root != nil {
		walk(p.Root, "", true, true)
	}
	return renderASCIITable(rows)
}

func toF(v any) float64 {
	switch t := v.(type) {
	case float64:
		return t
	case int:
		return float64(t)
	case int64:
		return float64(t)
	}
	return 0
}

// tidbJSON writes one operator object of TiDB's JSON format. Its members
// keep TiDB's field order; actRows, accessObject, operatorInfo and
// subOperators are omitted when empty.
//
//uplan:hotpath
func tidbJSON(w *jsonWriter, n *Node, depth int) {
	est := ""
	if r, ok := n.Prop("rows"); ok {
		est = strconv.FormatFloat(toF(r), 'f', 2, 64)
	}
	task := n.Task
	if task == "" {
		task = "root"
	}
	obj := ""
	if n.Object != "" {
		obj = "table:" + n.Object
	}
	if ix, ok := n.Prop("index"); ok {
		if obj != "" {
			obj += ", "
		}
		obj += "index:" + FormatVal(ix)
	}
	info, _ := n.Prop("operator info")
	member := func(key, val string) {
		w.b = append(w.b, ',')
		w.newline(depth + 1)
		w.key(key)
		w.b = jsontext.AppendString(w.b, val)
	}
	w.b = append(w.b, '{')
	w.newline(depth + 1)
	w.key("id")
	w.b = jsontext.AppendString(w.b, n.Name)
	member("estRows", est)
	if ar, ok := n.Prop("actual_rows"); ok {
		if s := FormatVal(ar); s != "" {
			member("actRows", s)
		}
	}
	member("taskType", task)
	if obj != "" {
		member("accessObject", obj)
	}
	if s := FormatVal(info); s != "" {
		member("operatorInfo", s)
	}
	if len(n.Children) > 0 {
		w.b = append(w.b, ',')
		w.newline(depth + 1)
		w.key("subOperators")
		w.nodeArray(n, depth+1, tidbJSON)
	}
	w.newline(depth)
	w.b = append(w.b, '}')
}

// TiDBJSON renders TiDB's EXPLAIN FORMAT="tidb_json" output: an array with
// the operator tree.
func TiDBJSON(p *Plan) (string, error) {
	if p.Root == nil {
		return "null", nil
	}
	w := newJSONWriter()
	w.b = append(w.b, '[')
	w.newline(1)
	tidbJSON(w, p.Root, 1)
	w.newline(0)
	w.b = append(w.b, ']')
	return string(w.b), nil
}

// SQLiteText renders SQLite's EXPLAIN QUERY PLAN output (paper Listing 1):
// a QUERY PLAN header followed by |-- / `-- tree art.
func SQLiteText(p *Plan) string {
	var b strings.Builder
	b.WriteString("QUERY PLAN\n")
	var walk func(n *Node, prefix string, last bool)
	walk = func(n *Node, prefix string, last bool) {
		connector := "|--"
		if last {
			connector = "`--"
		}
		line := n.Name
		if n.Object != "" {
			line += " " + n.Object
		}
		if detail, ok := n.Prop("detail"); ok {
			line += " " + FormatVal(detail)
		}
		fmt.Fprintf(&b, "%s%s%s\n", prefix, connector, line)
		childPrefix := prefix + "|  "
		if last {
			childPrefix = prefix + "   "
		}
		for i, c := range n.Children {
			walk(c, childPrefix, i == len(n.Children)-1)
		}
	}
	if p.Root != nil {
		if p.Root.Name == "QUERY PLAN" {
			for i, c := range p.Root.Children {
				walk(c, "", i == len(p.Root.Children)-1)
			}
		} else {
			walk(p.Root, "", true)
		}
	}
	return b.String()
}

// InfluxText renders InfluxDB's EXPLAIN output: a list of plan-level
// properties, no operators.
func InfluxText(p *Plan) string {
	var b strings.Builder
	for _, pr := range p.PlanProps {
		fmt.Fprintf(&b, "%s: %s\n", strings.ToUpper(pr.Key), FormatVal(pr.Val))
	}
	return b.String()
}

package explain

import (
	"fmt"
	"strings"
)

// MySQL serializations: the TREE format (EXPLAIN FORMAT=TREE), the JSON
// format (EXPLAIN FORMAT=JSON, simplified to the operation/cost_info
// nesting), and the classic tabular EXPLAIN (paper Figure 2).

// MySQLTree renders the TREE format: "-> " prefixed lines, four-space
// indentation per level, inline cost annotations.
func MySQLTree(p *Plan) string {
	var b strings.Builder
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		b.WriteString(strings.Repeat("    ", depth))
		b.WriteString("-> ")
		b.WriteString(mysqlTitle(n))
		if cost, ok := n.Prop("total_cost"); ok {
			rows, _ := n.Prop("rows")
			fmt.Fprintf(&b, "  (cost=%s rows=%s)", FormatVal(cost), FormatVal(rows))
		}
		if ar, ok := n.Prop("actual_rows"); ok {
			at, _ := n.Prop("actual_time_ms")
			fmt.Fprintf(&b, " (actual time=0.000..%s rows=%s loops=1)",
				FormatVal(at), FormatVal(ar))
		}
		b.WriteByte('\n')
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	if p.Root != nil {
		walk(p.Root, 0)
	}
	return b.String()
}

// mysqlTitle composes the TREE line text: operator name plus its inline
// detail (filter text, "on <table>", "using <index>").
func mysqlTitle(n *Node) string {
	title := n.Name
	if detail, ok := n.Prop("detail"); ok {
		title += ": " + FormatVal(detail)
	}
	if n.Object != "" {
		title += " on " + n.Object
	}
	if key, ok := n.Prop("key"); ok {
		title += " using " + FormatVal(key)
	}
	if cond, ok := n.Prop("condition"); ok {
		title += " (" + FormatVal(cond) + ")"
	}
	return title
}

// mysqlNodeJSON writes one operation object of the JSON format.
//
//uplan:hotpath
func mysqlNodeJSON(w *jsonWriter, n *Node, depth int) {
	var buf [8]jsonField
	o := jsonObject(buf[:0])
	o.setString("operation", mysqlTitle(n))
	if hasAnyProp(n, "total_cost", "read_cost", "eval_cost") {
		o.setNested("cost_info", n, mysqlCostInfoJSON)
	}
	if rows, ok := n.Prop("rows"); ok {
		o.setValue("rows_examined_per_scan", rows)
	}
	if n.Object != "" {
		o.setString("table_name", n.Object)
	}
	if key, ok := n.Prop("key"); ok {
		o.setValue("key", key)
	}
	if cond, ok := n.Prop("condition"); ok {
		o.setValue("attached_condition", cond)
	}
	if ar, ok := n.Prop("actual_rows"); ok {
		o.setValue("actual_rows", ar)
	}
	if len(n.Children) > 0 {
		o.setNested("inputs", n, mysqlInputsJSON)
	}
	w.object(o, depth)
}

func hasAnyProp(n *Node, keys ...string) bool {
	for _, k := range keys {
		if _, ok := n.Prop(k); ok {
			return true
		}
	}
	return false
}

// mysqlCostInfoJSON writes a node's cost_info object: its costs as the
// strings the text format prints.
func mysqlCostInfoJSON(w *jsonWriter, n *Node, depth int) {
	var buf [3]jsonField
	o := jsonObject(buf[:0])
	if c, ok := n.Prop("total_cost"); ok {
		o.setString("query_cost", FormatVal(c))
	}
	if rc, ok := n.Prop("read_cost"); ok {
		o.setString("read_cost", FormatVal(rc))
	}
	if ec, ok := n.Prop("eval_cost"); ok {
		o.setString("eval_cost", FormatVal(ec))
	}
	w.object(o, depth)
}

// mysqlQueryCostJSON writes the query block's cost_info: the root's
// total cost alone.
func mysqlQueryCostJSON(w *jsonWriter, n *Node, depth int) {
	c, _ := n.Prop("total_cost")
	w.object(jsonObject{{key: "query_cost", kind: fieldString, str: FormatVal(c)}}, depth)
}

func mysqlInputsJSON(w *jsonWriter, n *Node, depth int) {
	w.nodeArray(n, depth, mysqlNodeJSON)
}

// MySQLJSON renders the (simplified) EXPLAIN FORMAT=JSON document: a
// query_block wrapping the operation tree.
func MySQLJSON(p *Plan) (string, error) {
	var buf [3]jsonField
	qb := jsonObject(buf[:0])
	qb.setValue("select_id", 1)
	if p.Root != nil {
		if _, ok := p.Root.Prop("total_cost"); ok {
			qb.setNested("cost_info", p.Root, mysqlQueryCostJSON)
		}
		qb.setNested("plan", p.Root, mysqlNodeJSON)
	}
	w := newJSONWriter()
	w.b = append(w.b, '{')
	w.newline(1)
	w.key("query_block")
	w.object(qb, 1)
	w.newline(0)
	w.b = append(w.b, '}')
	return w.result("mysql")
}

// MySQLTable renders the classic tabular EXPLAIN: one row per table
// access, as in paper Figure 2.
func MySQLTable(p *Plan) string {
	type rowT struct{ id, selectType, table, typ, key, rows, extra string }
	var rows []rowT
	p.Walk(func(n *Node, _ int) {
		if n.Object == "" {
			return
		}
		typ := "ALL"
		key := "NULL"
		var extras []string
		if k, ok := n.Prop("key"); ok {
			key = FormatVal(k)
			typ = "ref"
			if strings.Contains(strings.ToLower(n.Name), "range") {
				typ = "range"
			}
			if strings.Contains(strings.ToLower(n.Name), "covering") {
				typ = "index"
				extras = append(extras, "Using index")
			}
		}
		if _, ok := n.Prop("condition"); ok {
			extras = append(extras, "Using where")
		}
		est := ""
		if r, ok := n.Prop("rows"); ok {
			est = FormatVal(r)
		}
		extra := strings.Join(extras, "; ")
		if extra == "" {
			extra = "NULL"
		}
		rows = append(rows, rowT{"1", "SIMPLE", n.Object, typ, key, est, extra})
	})
	headers := []string{"id", "select_type", "table", "type", "key", "rows", "Extra"}
	cells := make([][]string, 0, len(rows)+1)
	cells = append(cells, headers)
	for _, r := range rows {
		cells = append(cells, []string{r.id, r.selectType, r.table, r.typ, r.key, r.rows, r.extra})
	}
	return renderASCIITable(cells)
}

// renderASCIITable renders rows as a +----+ bordered table; the first row
// is the header.
func renderASCIITable(cells [][]string) string {
	if len(cells) == 0 {
		return ""
	}
	widths := make([]int, len(cells[0]))
	for _, row := range cells {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	sep := func() {
		for _, w := range widths {
			b.WriteString("+" + strings.Repeat("-", w+2))
		}
		b.WriteString("+\n")
	}
	writeRow := func(row []string) {
		for i, c := range row {
			fmt.Fprintf(&b, "| %-*s ", widths[i], c)
		}
		b.WriteString("|\n")
	}
	sep()
	writeRow(cells[0])
	sep()
	for _, row := range cells[1:] {
		writeRow(row)
	}
	sep()
	return b.String()
}

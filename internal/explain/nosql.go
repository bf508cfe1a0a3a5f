package explain

import (
	"fmt"
	"strings"
)

// MongoDB, Neo4j, SparkSQL, and SQL Server serializations.

// mongoStage writes one stage document of the winning plan; a single
// input nests as inputStage, several as inputStages.
//
//uplan:hotpath
func mongoStage(w *jsonWriter, n *Node, depth int) {
	var buf [12]jsonField
	o := jsonObject(buf[:0])
	o.setString("stage", n.Name)
	if n.Object != "" {
		o.setString("namespace", "test."+n.Object)
	}
	for _, pr := range n.Props {
		switch pr.Key {
		case "rows", "width", "startup_cost", "total_cost":
			// Mongo exposes no estimates in winningPlan.
		case "actual_rows":
			o.setValue("nReturned", pr.Val)
		default:
			o.setValue(pr.Key, pr.Val)
		}
	}
	switch len(n.Children) {
	case 0:
	case 1:
		o.setNested("inputStage", n.Children[0], mongoStage)
	default:
		o.setNested("inputStages", n, mongoInputStages)
	}
	w.object(o, depth)
}

func mongoInputStages(w *jsonWriter, n *Node, depth int) {
	w.nodeArray(n, depth, mongoStage)
}

// mongoQueryPlanner writes the queryPlanner document around the winning
// plan rooted at n (nil for an empty plan).
func mongoQueryPlanner(w *jsonWriter, n *Node, depth int) {
	var buf [4]jsonField
	qp := jsonObject(buf[:0])
	qp.setValue("plannerVersion", 1)
	qp.setNested("rejectedPlans", nil, emptyJSONArray)
	if n != nil {
		qp.setNested("winningPlan", n, mongoStage)
		if n.Object != "" {
			qp.setString("namespace", "test."+n.Object)
		}
	}
	w.object(qp, depth)
}

func emptyJSONArray(w *jsonWriter, _ *Node, _ int) { w.b = append(w.b, "[]"...) }

// MongoJSON renders MongoDB's explain() document with the winning plan.
func MongoJSON(p *Plan) (string, error) {
	var buf [8]jsonField
	doc := jsonObject(buf[:0])
	doc.setNested("queryPlanner", p.Root, mongoQueryPlanner)
	doc.setValue("ok", 1)
	for _, pr := range p.PlanProps {
		doc.setValue(pr.Key, pr.Val)
	}
	w := newJSONWriter()
	w.object(doc, 0)
	return w.result("mongo")
}

// Neo4jTable renders Neo4j's plan table (paper Figure 1): planner/runtime
// header, an Operator/Details/Estimated Rows table, and the database
// accesses footer.
func Neo4jTable(p *Plan) string {
	var b strings.Builder
	planner := "COST"
	runtime := "5.10"
	var accesses, memory any = 0, 0
	for _, pr := range p.PlanProps {
		switch pr.Key {
		case "planner":
			planner = FormatVal(pr.Val)
		case "runtime version":
			runtime = FormatVal(pr.Val)
		case "database accesses":
			accesses = pr.Val
		case "memory":
			memory = pr.Val
		}
	}
	fmt.Fprintf(&b, "Planner %s\nRuntime version %s\n", planner, runtime)
	rows := [][]string{{"Operator", "Details", "Estimated Rows"}}
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		detail, _ := n.Prop("Details")
		if n.Object != "" {
			d := FormatVal(detail)
			if d != "" {
				d += "; "
			}
			detail = d + n.Object
		}
		est := ""
		if r, ok := n.Prop("rows"); ok {
			est = FormatVal(r)
		}
		rows = append(rows, []string{
			strings.Repeat("| ", depth) + "+" + n.Name,
			FormatVal(detail), est,
		})
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	if p.Root != nil {
		walk(p.Root, 0)
	}
	b.WriteString(renderASCIITable(rows))
	fmt.Fprintf(&b, "Total database accesses: %s, total allocated memory: %s\n",
		FormatVal(accesses), FormatVal(memory))
	return b.String()
}

// neo4jNode writes one operator object: its type, its arguments and
// its children.
//
//uplan:hotpath
func neo4jNode(w *jsonWriter, n *Node, depth int) {
	var buf [3]jsonField
	o := jsonObject(buf[:0])
	o.setString("operatorType", n.Name)
	o.setNested("arguments", n, neo4jArguments)
	if len(n.Children) > 0 {
		o.setNested("children", n, neo4jChildren)
	}
	w.object(o, depth)
}

func neo4jArguments(w *jsonWriter, n *Node, depth int) {
	var buf [12]jsonField
	args := jsonObject(buf[:0])
	for _, pr := range n.Props {
		switch pr.Key {
		case "rows":
			args.setValue("EstimatedRows", pr.Val)
		case "actual_rows":
			args.setValue("Rows", pr.Val)
		default:
			args.setValue(pr.Key, pr.Val)
		}
	}
	if n.Object != "" {
		args.setString("Details", n.Object)
	}
	w.object(args, depth)
}

func neo4jChildren(w *jsonWriter, n *Node, depth int) {
	w.nodeArray(n, depth, neo4jNode)
}

// Neo4jJSON renders the plan as the JSON structure Neo4j drivers expose.
func Neo4jJSON(p *Plan) (string, error) {
	var buf [8]jsonField
	doc := jsonObject(buf[:0])
	if p.Root != nil {
		doc.setNested("plan", p.Root, neo4jNode)
	}
	for _, pr := range p.PlanProps {
		doc.setValue(pr.Key, pr.Val)
	}
	w := newJSONWriter()
	w.object(doc, 0)
	return w.result("neo4j")
}

// SparkText renders SparkSQL's "== Physical Plan ==" text format.
func SparkText(p *Plan) string {
	var b strings.Builder
	b.WriteString("== Physical Plan ==\n")
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		if depth == 0 {
			b.WriteString(sparkTitle(n))
		} else {
			b.WriteString(strings.Repeat("   ", depth-1))
			b.WriteString("+- ")
			b.WriteString(sparkTitle(n))
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

func sparkTitle(n *Node) string {
	title := n.Name
	if args, ok := n.Prop("args"); ok {
		title += FormatVal(args)
	}
	if n.Object != "" {
		title += " " + n.Object
	}
	return title
}

// SQLServerXML renders a SQL Server showplan XML document.
func SQLServerXML(p *Plan) string {
	var b strings.Builder
	b.WriteString(`<ShowPlanXML xmlns="http://schemas.microsoft.com/sqlserver/2004/07/showplan" Version="1.564">` + "\n")
	b.WriteString(" <BatchSequence><Batch><Statements><StmtSimple>\n  <QueryPlan>\n")
	var walk func(n *Node, indent string)
	walk = func(n *Node, indent string) {
		rows, _ := n.Prop("rows")
		cost, _ := n.Prop("total_cost")
		fmt.Fprintf(&b, "%s<RelOp PhysicalOp=%q LogicalOp=%q EstimateRows=%q EstimatedTotalSubtreeCost=%q>\n",
			indent, n.Name, logicalOpFor(n.Name), FormatVal(rows), FormatVal(cost))
		if n.Object != "" {
			fmt.Fprintf(&b, "%s <Object Table=\"[%s]\"/>\n", indent, n.Object)
		}
		for _, pr := range n.Props {
			switch pr.Key {
			case "rows", "total_cost", "startup_cost", "width":
				continue
			}
			fmt.Fprintf(&b, "%s <%s>%s</%s>\n", indent,
				sqlServerTag(pr.Key), xmlEscape(FormatVal(pr.Val)), sqlServerTag(pr.Key))
		}
		for _, c := range n.Children {
			walk(c, indent+" ")
		}
		fmt.Fprintf(&b, "%s</RelOp>\n", indent)
	}
	if p.Root != nil {
		walk(p.Root, "   ")
	}
	b.WriteString("  </QueryPlan>\n </StmtSimple></Statements></Batch></BatchSequence>\n</ShowPlanXML>\n")
	return b.String()
}

// SQLServerText renders SHOWPLAN_TEXT-style output: a StmtText tree with
// |-- art.
func SQLServerText(p *Plan) string {
	var b strings.Builder
	b.WriteString("StmtText\n---------\n")
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		if depth > 0 {
			b.WriteString(strings.Repeat("     ", depth-1))
			b.WriteString("  |--")
		}
		title := n.Name
		if n.Object != "" {
			title += "(OBJECT:([" + n.Object + "]))"
		}
		if pred, ok := n.Prop("Predicate"); ok {
			title += " WHERE:(" + FormatVal(pred) + ")"
		}
		b.WriteString(title)
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

// SQLServerTable renders SET STATISTICS PROFILE-style tabular output.
func SQLServerTable(p *Plan) string {
	rows := [][]string{{"Rows", "Executes", "StmtText", "EstimateRows", "TotalSubtreeCost"}}
	p.Walk(func(n *Node, depth int) {
		est, _ := n.Prop("rows")
		cost, _ := n.Prop("total_cost")
		actual := ""
		if ar, ok := n.Prop("actual_rows"); ok {
			actual = FormatVal(ar)
		}
		title := strings.Repeat("  ", depth) + "|--" + n.Name
		if n.Object != "" {
			title += "([" + n.Object + "])"
		}
		rows = append(rows, []string{actual, "1", title, FormatVal(est), FormatVal(cost)})
	})
	return renderASCIITable(rows)
}

func sqlServerTag(key string) string {
	parts := strings.Fields(strings.ReplaceAll(key, "_", " "))
	for i, p := range parts {
		parts[i] = strings.Title(p)
	}
	return strings.Join(parts, "")
}

func logicalOpFor(physical string) string {
	switch physical {
	case "Hash Match":
		return "Inner Join"
	case "Nested Loops":
		return "Inner Join"
	case "Merge Join":
		return "Inner Join"
	case "Stream Aggregate", "Hash Match Aggregate":
		return "Aggregate"
	case "Table Scan", "Clustered Index Scan", "Index Seek", "Clustered Index Seek":
		return "Scan"
	}
	return physical
}

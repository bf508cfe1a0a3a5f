package explain_test

import (
	"encoding/json"
	"fmt"

	"uplan/internal/explain"
)

// The JSON serializers as they were before the append-style writers:
// map[string]any documents rendered by json.MarshalIndent. They are the
// reference the golden test holds the writers to, byte for byte.

func pgNodeJSONRef(n *explain.Node) map[string]any {
	m := map[string]any{"Node Type": n.Name}
	if n.Object != "" {
		m["Relation Name"] = n.Object
	}
	for _, pr := range n.Props {
		switch pr.Key {
		case "startup_cost":
			m["Startup Cost"] = pr.Val
		case "total_cost":
			m["Total Cost"] = pr.Val
		case "rows":
			m["Plan Rows"] = pr.Val
		case "width":
			m["Plan Width"] = pr.Val
		case "actual_rows":
			m["Actual Rows"] = pr.Val
		case "actual_time_ms":
			m["Actual Total Time"] = pr.Val
		case "loops":
			m["Actual Loops"] = pr.Val
		default:
			m[pr.Key] = pr.Val
		}
	}
	if len(n.Children) > 0 {
		var kids []any
		for _, c := range n.Children {
			child := pgNodeJSONRef(c)
			child["Parent Relationship"] = "Outer"
			kids = append(kids, child)
		}
		m["Plans"] = kids
	}
	return m
}

func postgresJSONRef(p *explain.Plan) (string, error) {
	top := map[string]any{}
	if p.Root != nil {
		top["Plan"] = pgNodeJSONRef(p.Root)
	}
	for _, pr := range p.PlanProps {
		top[pr.Key] = pr.Val
	}
	data, err := json.MarshalIndent([]any{top}, "", "  ")
	if err != nil {
		return "", fmt.Errorf("explain: postgres json: %w", err)
	}
	return string(data), nil
}

func mysqlTitleRef(n *explain.Node) string {
	title := n.Name
	if detail, ok := n.Prop("detail"); ok {
		title += ": " + explain.FormatVal(detail)
	}
	if n.Object != "" {
		title += " on " + n.Object
	}
	if key, ok := n.Prop("key"); ok {
		title += " using " + explain.FormatVal(key)
	}
	if cond, ok := n.Prop("condition"); ok {
		title += " (" + explain.FormatVal(cond) + ")"
	}
	return title
}

func mysqlNodeJSONRef(n *explain.Node) map[string]any {
	m := map[string]any{"operation": mysqlTitleRef(n)}
	ci := map[string]any{}
	if c, ok := n.Prop("total_cost"); ok {
		ci["query_cost"] = explain.FormatVal(c)
	}
	if rc, ok := n.Prop("read_cost"); ok {
		ci["read_cost"] = explain.FormatVal(rc)
	}
	if ec, ok := n.Prop("eval_cost"); ok {
		ci["eval_cost"] = explain.FormatVal(ec)
	}
	if len(ci) > 0 {
		m["cost_info"] = ci
	}
	if rows, ok := n.Prop("rows"); ok {
		m["rows_examined_per_scan"] = rows
	}
	if n.Object != "" {
		m["table_name"] = n.Object
	}
	if key, ok := n.Prop("key"); ok {
		m["key"] = key
	}
	if cond, ok := n.Prop("condition"); ok {
		m["attached_condition"] = cond
	}
	if ar, ok := n.Prop("actual_rows"); ok {
		m["actual_rows"] = ar
	}
	if len(n.Children) > 0 {
		var kids []any
		for _, c := range n.Children {
			kids = append(kids, mysqlNodeJSONRef(c))
		}
		m["inputs"] = kids
	}
	return m
}

func mysqlJSONRef(p *explain.Plan) (string, error) {
	qb := map[string]any{"select_id": 1}
	if p.Root != nil {
		if c, ok := p.Root.Prop("total_cost"); ok {
			qb["cost_info"] = map[string]any{"query_cost": explain.FormatVal(c)}
		}
		qb["plan"] = mysqlNodeJSONRef(p.Root)
	}
	data, err := json.MarshalIndent(map[string]any{"query_block": qb}, "", "  ")
	if err != nil {
		return "", fmt.Errorf("explain: mysql json: %w", err)
	}
	return string(data), nil
}

func toFRef(v any) float64 {
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

type tidbJSONNodeRef struct {
	ID           string            `json:"id"`
	EstRows      string            `json:"estRows"`
	ActRows      string            `json:"actRows,omitempty"`
	TaskType     string            `json:"taskType"`
	AccessObject string            `json:"accessObject,omitempty"`
	OperatorInfo string            `json:"operatorInfo,omitempty"`
	SubOperators []tidbJSONNodeRef `json:"subOperators,omitempty"`
}

func tidbJSONRef(n *explain.Node) tidbJSONNodeRef {
	est := ""
	if r, ok := n.Prop("rows"); ok {
		est = fmt.Sprintf("%.2f", toFRef(r))
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
		obj += "index:" + explain.FormatVal(ix)
	}
	info, _ := n.Prop("operator info")
	out := tidbJSONNodeRef{
		ID: n.Name, EstRows: est, TaskType: task,
		AccessObject: obj, OperatorInfo: explain.FormatVal(info),
	}
	if ar, ok := n.Prop("actual_rows"); ok {
		out.ActRows = explain.FormatVal(ar)
	}
	for _, c := range n.Children {
		out.SubOperators = append(out.SubOperators, tidbJSONRef(c))
	}
	return out
}

func tidbJSONDocRef(p *explain.Plan) (string, error) {
	var arr []tidbJSONNodeRef
	if p.Root != nil {
		arr = append(arr, tidbJSONRef(p.Root))
	}
	data, err := json.MarshalIndent(arr, "", "  ")
	if err != nil {
		return "", fmt.Errorf("explain: tidb json: %w", err)
	}
	return string(data), nil
}

func mongoStageRef(n *explain.Node) map[string]any {
	m := map[string]any{"stage": n.Name}
	if n.Object != "" {
		m["namespace"] = "test." + n.Object
	}
	for _, pr := range n.Props {
		switch pr.Key {
		case "rows", "width", "startup_cost", "total_cost":
		case "actual_rows":
			m["nReturned"] = pr.Val
		default:
			m[pr.Key] = pr.Val
		}
	}
	switch len(n.Children) {
	case 0:
	case 1:
		m["inputStage"] = mongoStageRef(n.Children[0])
	default:
		var kids []any
		for _, c := range n.Children {
			kids = append(kids, mongoStageRef(c))
		}
		m["inputStages"] = kids
	}
	return m
}

func mongoJSONRef(p *explain.Plan) (string, error) {
	qp := map[string]any{
		"plannerVersion": 1,
		"rejectedPlans":  []any{},
	}
	if p.Root != nil {
		qp["winningPlan"] = mongoStageRef(p.Root)
		if p.Root.Object != "" {
			qp["namespace"] = "test." + p.Root.Object
		}
	}
	doc := map[string]any{"queryPlanner": qp, "ok": 1}
	for _, pr := range p.PlanProps {
		doc[pr.Key] = pr.Val
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return "", fmt.Errorf("explain: mongo json: %w", err)
	}
	return string(data), nil
}

func neo4jNodeRef(n *explain.Node) map[string]any {
	args := map[string]any{}
	for _, pr := range n.Props {
		switch pr.Key {
		case "rows":
			args["EstimatedRows"] = pr.Val
		case "actual_rows":
			args["Rows"] = pr.Val
		default:
			args[pr.Key] = pr.Val
		}
	}
	if n.Object != "" {
		args["Details"] = n.Object
	}
	m := map[string]any{"operatorType": n.Name, "arguments": args}
	if len(n.Children) > 0 {
		var kids []any
		for _, c := range n.Children {
			kids = append(kids, neo4jNodeRef(c))
		}
		m["children"] = kids
	}
	return m
}

func neo4jJSONRef(p *explain.Plan) (string, error) {
	doc := map[string]any{}
	if p.Root != nil {
		doc["plan"] = neo4jNodeRef(p.Root)
	}
	for _, pr := range p.PlanProps {
		doc[pr.Key] = pr.Val
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return "", fmt.Errorf("explain: neo4j json: %w", err)
	}
	return string(data), nil
}

// jsonRef maps each JSON-capable dialect to its reference serializer.
var jsonRef = map[string]func(*explain.Plan) (string, error){
	"postgresql": postgresJSONRef,
	"mysql":      mysqlJSONRef,
	"tidb":       tidbJSONDocRef,
	"mongodb":    mongoJSONRef,
	"neo4j":      neo4jJSONRef,
}

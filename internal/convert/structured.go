package convert

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"strings"

	"uplan/internal/core"
)

// Structured-format parsers: PostgreSQL JSON, MySQL JSON, TiDB JSON,
// MongoDB explain JSON, Neo4j JSON, and SQL Server showplan XML.
//
// The JSON formats decode through the streaming jsonScan walker (see
// jsonscan.go and internal/jsontext): object keys drive core.Node
// construction directly, with no intermediate map[string]any / []any
// trees, and every node, property list, and child list is allocated from
// the caller's core.PlanArena (nil arena → heap). The retained map-based decoders live in
// jsonlegacy.go and serve as the reference implementation for the
// differential tests.

// newJSONNodeIn allocates a JSON plan node with its operation still
// unknown; the scanners fill Op when (if) they meet the type key.
func newJSONNodeIn(ar *core.PlanArena) *core.Node {
	return ar.NewNodeIn("", "")
}

// ------------------------------------------------------- PostgreSQL (JSON)

// errPGArrayElement is already fully phrased; convertJSON returns it
// as-is instead of wrapping it like scanner errors.
var errPGArrayElement = errors.New("convert: postgres json: unexpected array element")

//uplan:hotpath
func (c *postgresConverter) convertJSON(s string, ar *core.PlanArena) (*core.Plan, error) {
	sc := newJSONScan(s, ar)
	plan := &core.Plan{Source: "postgresql"}
	scanTop := func() error {
		return sc.ScanObject(func(key string) error {
			if key == "Plan" {
				if sc.Peek() != '{' {
					return sc.SkipValue()
				}
				root, err := c.scanJSONNode(&sc, ar)
				if err != nil {
					return err
				}
				plan.Root = root
				return nil
			}
			v, err := sc.scanValue()
			if err != nil {
				return err
			}
			name, cat := c.reg.ResolveProperty("postgresql", key)
			ar.AddPlanPropertyIn(plan, cat, name, v)
			return nil
		})
	}
	// Accept both the canonical one-element array and a bare object.
	switch sc.Peek() {
	case '[':
		seen := false
		err := sc.ScanArray(func(i int) error {
			if i > 0 {
				return sc.SkipValue()
			}
			if sc.Peek() != '{' {
				return errPGArrayElement
			}
			seen = true
			return scanTop()
		})
		if err != nil {
			if errors.Is(err, errPGArrayElement) {
				return nil, err
			}
			return nil, fmt.Errorf("convert: postgres json: %w", err)
		}
		if !seen {
			return nil, fmt.Errorf("convert: postgres json: unexpected top-level shape")
		}
	case '{':
		if err := scanTop(); err != nil {
			return nil, fmt.Errorf("convert: postgres json: %w", err)
		}
	default:
		return nil, fmt.Errorf("convert: postgres json: unexpected top-level shape")
	}
	if plan.Root == nil {
		return nil, fmt.Errorf("convert: postgres json: no Plan object")
	}
	return plan, nil
}

//uplan:hotpath
func (c *postgresConverter) scanJSONNode(sc *jsonScan, ar *core.PlanArena) (*core.Node, error) {
	node := newJSONNodeIn(ar)
	sawType := false
	prop := func(cat core.PropertyCategory, name string) error {
		v, err := sc.scanValue()
		if err != nil {
			return err
		}
		addTypedProp(ar, node, cat, name, v)
		return nil
	}
	err := sc.ScanObject(func(key string) error {
		switch key {
		case "Node Type":
			name, ok, err := sc.ScanStringValue()
			if err != nil {
				return err
			}
			if ok {
				node.Op = c.reg.ResolveOperation("postgresql", name)
				sawType = true
			}
			return nil
		case "Plans":
			if sc.Peek() != '[' {
				return sc.SkipValue()
			}
			return sc.ScanArray(func(int) error {
				if sc.Peek() != '{' {
					return sc.SkipValue()
				}
				child, err := c.scanJSONNode(sc, ar)
				if err != nil {
					return err
				}
				ar.AddChildIn(node, child)
				return nil
			})
		case "Parent Relationship":
			return prop(core.Configuration, "parent relationship")
		case "Startup Cost":
			return prop(core.Cost, "startup cost")
		case "Total Cost":
			return prop(core.Cost, "total cost")
		case "Plan Rows":
			return prop(core.Cardinality, "estimated rows")
		case "Plan Width":
			return prop(core.Cardinality, "estimated width")
		case "Actual Rows":
			return prop(core.Cardinality, "actual rows")
		case "Actual Total Time":
			return prop(core.Status, "actual time")
		case "Relation Name":
			return prop(core.Configuration, "name object")
		default:
			pname, cat := c.reg.ResolveProperty("postgresql", key)
			return prop(cat, pname)
		}
	})
	if err != nil {
		return nil, err
	}
	if !sawType {
		node.Op = c.reg.ResolveOperation("postgresql", "")
	}
	return node, nil
}

// -------------------------------------------------------- PostgreSQL (XML)

// convertXML parses the PostgreSQL XML explain format: nested <Plan>
// elements with dash-separated tag names.
func (c *postgresConverter) convertXML(s string, ar *core.PlanArena) (*core.Plan, error) {
	type xmlPlan struct {
		XMLName  xml.Name
		Children []xmlPlan `xml:",any"`
		Text     string    `xml:",chardata"`
	}
	var doc xmlPlan
	if err := xml.Unmarshal([]byte(s), &doc); err != nil {
		return nil, fmt.Errorf("convert: postgres xml: %w", err)
	}
	plan := &core.Plan{Source: "postgresql"}
	var buildNode func(el xmlPlan) *core.Node
	buildNode = func(el xmlPlan) *core.Node {
		node := newJSONNodeIn(ar)
		for _, ch := range el.Children {
			tag := strings.ReplaceAll(ch.XMLName.Local, "-", " ")
			val := strings.TrimSpace(ch.Text)
			switch ch.XMLName.Local {
			case "Node-Type":
				node.Op = c.reg.ResolveOperation("postgresql", val)
			case "Plans":
				for _, sub := range ch.Children {
					if sub.XMLName.Local == "Plan" {
						ar.AddChildIn(node, buildNode(sub))
					}
				}
			case "Startup-Cost":
				addTypedProp(ar, node, core.Cost, "startup cost", parseScalar(val))
			case "Total-Cost":
				addTypedProp(ar, node, core.Cost, "total cost", parseScalar(val))
			case "Rows":
				addTypedProp(ar, node, core.Cardinality, "estimated rows", parseScalar(val))
			case "Width":
				addTypedProp(ar, node, core.Cardinality, "estimated width", parseScalar(val))
			case "Relation-Name":
				addTypedProp(ar, node, core.Configuration, "name object", parseScalar(val))
			default:
				name, cat := c.reg.ResolveProperty("postgresql", tag)
				addTypedProp(ar, node, cat, name, parseScalar(val))
			}
		}
		return node
	}
	var findQuery func(el xmlPlan)
	findQuery = func(el xmlPlan) {
		for _, ch := range el.Children {
			switch ch.XMLName.Local {
			case "Plan":
				plan.Root = buildNode(ch)
			case "Query":
				findQuery(ch)
			default:
				val := strings.TrimSpace(ch.Text)
				if val != "" && len(ch.Children) == 0 {
					tag := strings.ReplaceAll(ch.XMLName.Local, "-", " ")
					name, cat := c.reg.ResolveProperty("postgresql", tag)
					addPlanPropTyped(ar, plan, cat, name, parseScalar(strings.TrimSuffix(val, " ms")))
				}
			}
		}
	}
	findQuery(doc)
	if plan.Root == nil {
		return nil, fmt.Errorf("convert: postgres xml: no Plan element")
	}
	return plan, nil
}

// ------------------------------------------------------- PostgreSQL (YAML)

// convertYAML parses the PostgreSQL YAML explain format (the subset the
// serializer emits: two-space indentation, "Plans:" lists with "- "
// items).
func (c *postgresConverter) convertYAML(s string, ar *core.PlanArena) (*core.Plan, error) {
	plan := &core.Plan{Source: "postgresql"}
	type frame struct {
		node   *core.Node
		indent int
	}
	stack := make([]frame, 0, 8)
	for it := newLineIter(s); it.next(); {
		raw := it.line
		if strings.TrimSpace(raw) == "" || strings.TrimSpace(raw) == "- Plan:" {
			continue
		}
		indent := indentDepth(raw)
		line := strings.TrimSpace(raw)
		if strings.HasPrefix(line, "- ") {
			line = strings.TrimPrefix(line, "- ")
			indent += 2 // the dash occupies the key's indentation
		}
		key, val, ok := splitKV(line)
		if !ok {
			continue
		}
		val = strings.Trim(val, `"`)
		if key == "Plans" {
			continue
		}
		if key == "Node Type" {
			op := c.reg.ResolveOperation("postgresql", val)
			node := ar.NewNodeIn(op.Category, op.Name)
			for len(stack) > 0 && stack[len(stack)-1].indent >= indent {
				stack = stack[:len(stack)-1]
			}
			if len(stack) == 0 {
				if plan.Root == nil {
					plan.Root = node
				}
			} else {
				ar.AddChildIn(stack[len(stack)-1].node, node)
			}
			stack = append(stack, frame{node, indent})
			continue
		}
		if len(stack) == 0 {
			name, cat := c.reg.ResolveProperty("postgresql", key)
			addPlanPropTyped(ar, plan, cat, name, parseScalar(strings.TrimSuffix(val, " ms")))
			continue
		}
		node := stack[len(stack)-1].node
		switch key {
		case "Startup Cost":
			addTypedProp(ar, node, core.Cost, "startup cost", parseScalar(val))
		case "Total Cost":
			addTypedProp(ar, node, core.Cost, "total cost", parseScalar(val))
		case "Rows":
			addTypedProp(ar, node, core.Cardinality, "estimated rows", parseScalar(val))
		case "Width":
			addTypedProp(ar, node, core.Cardinality, "estimated width", parseScalar(val))
		case "Relation Name":
			addTypedProp(ar, node, core.Configuration, "name object", parseScalar(val))
		default:
			addProp(c.reg, "postgresql", ar, node, key, val)
		}
	}
	if plan.Root == nil {
		return nil, fmt.Errorf("convert: postgres yaml: no plan found")
	}
	return plan, nil
}

// ------------------------------------------------------------ MySQL (JSON)

//uplan:hotpath
func (c *mysqlConverter) convertJSON(s string, ar *core.PlanArena) (*core.Plan, error) {
	sc := newJSONScan(s, ar)
	plan := &core.Plan{Source: "mysql"}
	foundQB := false
	err := sc.ScanObject(func(key string) error {
		if key != "query_block" || sc.Peek() != '{' {
			return sc.SkipValue()
		}
		foundQB = true
		return sc.ScanObject(func(qk string) error {
			switch qk {
			case "cost_info":
				if sc.Peek() != '{' {
					return sc.SkipValue()
				}
				return sc.ScanObject(func(ck string) error {
					if ck != "query_cost" {
						return sc.SkipValue()
					}
					v, err := sc.scanValue()
					if err != nil {
						return err
					}
					addPlanPropTyped(ar, plan, core.Cost, "total cost", v)
					return nil
				})
			case "plan":
				if sc.Peek() != '{' {
					return sc.SkipValue()
				}
				root, err := c.scanJSONNode(&sc, ar)
				if err != nil {
					return err
				}
				plan.Root = root
				return nil
			default:
				return sc.SkipValue()
			}
		})
	})
	if err != nil {
		return nil, fmt.Errorf("convert: mysql json: %w", err)
	}
	if !foundQB {
		return nil, fmt.Errorf("convert: mysql json: missing query_block")
	}
	if plan.Root == nil {
		return nil, fmt.Errorf("convert: mysql json: query_block has no plan")
	}
	return plan, nil
}

// addPlanPropTyped appends a plan-level property with an explicit
// category, allocating from ar when non-nil.
func addPlanPropTyped(ar *core.PlanArena, p *core.Plan, cat core.PropertyCategory, name string, v core.Value) {
	ar.AddPlanPropertyIn(p, cat, name, v)
}

//uplan:hotpath
func (c *mysqlConverter) scanJSONNode(sc *jsonScan, ar *core.PlanArena) (*core.Node, error) {
	node := newJSONNodeIn(ar)
	sawOp := false
	err := sc.ScanObject(func(key string) error {
		switch key {
		case "operation":
			title, ok, err := sc.ScanStringValue()
			if err != nil || !ok {
				return err
			}
			c.parseTreeLineInto(node, title, ar)
			sawOp = true
			return nil
		case "cost_info":
			if sc.Peek() != '{' {
				return sc.SkipValue()
			}
			return sc.ScanObject(func(ck string) error {
				v, err := sc.scanValue()
				if err != nil {
					return err
				}
				pname, cat := c.reg.ResolveProperty("mysql", ck)
				addTypedProp(ar, node, cat, pname, v)
				return nil
			})
		case "inputs":
			if sc.Peek() != '[' {
				return sc.SkipValue()
			}
			return sc.ScanArray(func(int) error {
				if sc.Peek() != '{' {
					return sc.SkipValue()
				}
				child, err := c.scanJSONNode(sc, ar)
				if err != nil {
					return err
				}
				ar.AddChildIn(node, child)
				return nil
			})
		case "rows_examined_per_scan":
			v, err := sc.scanValue()
			if err != nil {
				return err
			}
			addTypedProp(ar, node, core.Cardinality, "estimated rows", v)
			return nil
		case "actual_rows":
			v, err := sc.scanValue()
			if err != nil {
				return err
			}
			addTypedProp(ar, node, core.Cardinality, "actual rows", v)
			return nil
		default:
			v, err := sc.scanValue()
			if err != nil {
				return err
			}
			pname, cat := c.reg.ResolveProperty("mysql", key)
			addTypedProp(ar, node, cat, pname, v)
			return nil
		}
	})
	if err != nil {
		return nil, err
	}
	if !sawOp {
		node.Op = c.reg.ResolveOperation("mysql", "")
	}
	return node, nil
}

// ------------------------------------------------------------- TiDB (JSON)

// tidbJSONFields are the scalar fields of one TiDB JSON operator object.
type tidbJSONFields struct {
	ID           string
	EstRows      string
	ActRows      string
	TaskType     string
	AccessObject string
	OperatorInfo string
}

//uplan:hotpath
func (c *tidbConverter) convertJSON(s string, ar *core.PlanArena) (*core.Plan, error) {
	sc := newJSONScan(s, ar)
	var root *core.Node
	switch sc.Peek() {
	case '[':
		seen := false
		err := sc.ScanArray(func(i int) error {
			// Only element 0 becomes the plan, but every element is
			// decoded: the legacy json.Unmarshal reference type-checked
			// the whole array, and skipping would accept documents it
			// rejected.
			n, err := c.scanJSONNode(&sc, ar)
			if err != nil {
				return err
			}
			if i == 0 {
				root, seen = n, true
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("convert: tidb json: %w", err)
		}
		if !seen {
			return nil, fmt.Errorf("convert: tidb json: empty plan")
		}
	case '{':
		n, err := c.scanJSONNode(&sc, ar)
		if err != nil {
			return nil, fmt.Errorf("convert: tidb json: %w", err)
		}
		root = n
	default:
		return nil, fmt.Errorf("convert: tidb json: unexpected top-level shape")
	}
	// The legacy decoder was json.Unmarshal, which rejects trailing
	// garbage; keep that strictness.
	if err := sc.RequireEOF(); err != nil {
		return nil, fmt.Errorf("convert: tidb json: %w", err)
	}
	plan := &core.Plan{Source: "tidb"}
	plan.Root = foldTiDBSelections(root)
	return plan, nil
}

//uplan:hotpath
func (c *tidbConverter) scanJSONNode(sc *jsonScan, ar *core.PlanArena) (*core.Node, error) {
	var in tidbJSONFields
	var children []*core.Node
	strField := func(dst *string) error {
		if sc.Peek() == 'n' { // JSON null leaves the field empty, like Unmarshal
			return sc.ScanLiteral("null")
		}
		v, ok, err := sc.ScanStringValue()
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("non-string operator field")
		}
		*dst = v
		return nil
	}
	err := sc.ScanObject(func(key string) error {
		switch key {
		case "id":
			return strField(&in.ID)
		case "estRows":
			return strField(&in.EstRows)
		case "actRows":
			return strField(&in.ActRows)
		case "taskType":
			return strField(&in.TaskType)
		case "accessObject":
			return strField(&in.AccessObject)
		case "operatorInfo":
			return strField(&in.OperatorInfo)
		case "subOperators":
			if sc.Peek() == 'n' {
				return sc.ScanLiteral("null")
			}
			return sc.ScanArray(func(int) error {
				child, err := c.scanJSONNode(sc, ar)
				if err != nil {
					return err
				}
				children = ar.AppendChildIn(children, child)
				return nil
			})
		default:
			return sc.SkipValue()
		}
	})
	if err != nil {
		return nil, err
	}
	node := c.nodeFromJSONFields(in, ar)
	node.Children = children
	return node, nil
}

// nodeFromJSONFields maps one operator object's scalar fields onto a node;
// shared by the streaming decoder above and the legacy reference decoder.
func (c *tidbConverter) nodeFromJSONFields(in tidbJSONFields, ar *core.PlanArena) *core.Node {
	base, suffix := stripOperatorSuffix(in.ID)
	op := c.reg.ResolveOperation("tidb", base)
	node := ar.NewNodeIn(op.Category, op.Name)
	if suffix != "" {
		addTypedProp(ar, node, core.Status, "operator id", core.Str(suffix))
	}
	if in.EstRows != "" {
		addTypedProp(ar, node, core.Cardinality, "estimated rows", parseScalar(in.EstRows))
	}
	if in.ActRows != "" {
		addTypedProp(ar, node, core.Cardinality, "actual rows", parseScalar(in.ActRows))
	}
	if in.TaskType != "" {
		name, cat := c.reg.ResolveProperty("tidb", "task")
		addTypedProp(ar, node, cat, name, core.Str(in.TaskType))
	}
	if in.AccessObject != "" {
		addTypedProp(ar, node, core.Configuration, "access object", core.Str(in.AccessObject))
	}
	if in.OperatorInfo != "" {
		name, cat := c.reg.ResolveProperty("tidb", "operator info")
		addTypedProp(ar, node, cat, name, core.Str(in.OperatorInfo))
	}
	return node
}

// ---------------------------------------------------------- MongoDB (JSON)

type mongoConverter struct{ reg *core.Registry }

func (c *mongoConverter) Dialect() string { return "mongodb" }

func (c *mongoConverter) Convert(s string) (*core.Plan, error) {
	return convertPooled(c, s)
}

//uplan:hotpath
func (c *mongoConverter) ConvertIn(s string, ar *core.PlanArena) (*core.Plan, error) {
	sc := newJSONScan(s, ar)
	plan := &core.Plan{Source: "mongodb"}
	foundQP := false
	err := sc.ScanObject(func(key string) error {
		switch key {
		case "queryPlanner":
			if sc.Peek() != '{' {
				return sc.SkipValue()
			}
			foundQP = true
			return sc.ScanObject(func(qk string) error {
				switch qk {
				case "namespace":
					v, err := sc.scanValue()
					if err != nil {
						return err
					}
					addPlanPropTyped(ar, plan, core.Configuration, "name object", v)
					return nil
				case "winningPlan":
					if sc.Peek() != '{' {
						return sc.SkipValue()
					}
					root, err := c.scanStage(&sc, ar)
					if err != nil {
						return err
					}
					plan.Root = root
					return nil
				default:
					return sc.SkipValue()
				}
			})
		case "executionStats":
			if sc.Peek() != '{' {
				return sc.SkipValue()
			}
			return sc.ScanObject(func(ek string) error {
				v, err := sc.scanValue()
				if err != nil {
					return err
				}
				name, cat := c.reg.ResolveProperty("mongodb", ek)
				addPlanPropTyped(ar, plan, cat, name, v)
				return nil
			})
		default:
			return sc.SkipValue()
		}
	})
	if err != nil {
		return nil, fmt.Errorf("convert: mongodb json: %w", err)
	}
	if !foundQP {
		return nil, fmt.Errorf("convert: mongodb json: missing queryPlanner")
	}
	if plan.Root == nil {
		return nil, fmt.Errorf("convert: mongodb json: no winningPlan")
	}
	return plan, nil
}

//uplan:hotpath
func (c *mongoConverter) scanStage(sc *jsonScan, ar *core.PlanArena) (*core.Node, error) {
	node := newJSONNodeIn(ar)
	sawStage := false
	// inputStage precedes inputStages in the children, whatever the
	// document's key order (the legacy decoder's fixed attachment order).
	var first *core.Node
	var rest []*core.Node
	err := sc.ScanObject(func(key string) error {
		switch key {
		case "stage":
			name, ok, err := sc.ScanStringValue()
			if err != nil {
				return err
			}
			if ok {
				node.Op = c.reg.ResolveOperation("mongodb", name)
				sawStage = true
			}
			return nil
		case "inputStage":
			if sc.Peek() != '{' {
				return sc.SkipValue()
			}
			child, err := c.scanStage(sc, ar)
			if err != nil {
				return err
			}
			first = child
			return nil
		case "inputStages":
			if sc.Peek() != '[' {
				return sc.SkipValue()
			}
			return sc.ScanArray(func(int) error {
				if sc.Peek() != '{' {
					return sc.SkipValue()
				}
				child, err := c.scanStage(sc, ar)
				if err != nil {
					return err
				}
				rest = ar.AppendChildIn(rest, child)
				return nil
			})
		case "namespace":
			v, err := sc.scanValue()
			if err != nil {
				return err
			}
			addTypedProp(ar, node, core.Configuration, "name object", v)
			return nil
		default:
			v, err := sc.scanValue()
			if err != nil {
				return err
			}
			pname, cat := c.reg.ResolveProperty("mongodb", key)
			addTypedProp(ar, node, cat, pname, v)
			return nil
		}
	})
	if err != nil {
		return nil, err
	}
	if !sawStage {
		node.Op = c.reg.ResolveOperation("mongodb", "")
	}
	if first != nil {
		ar.AddChildIn(node, first)
	}
	for _, r := range rest {
		ar.AddChildIn(node, r)
	}
	return node, nil
}

// ------------------------------------------------------------ Neo4j (JSON)

//uplan:hotpath
func (c *neo4jConverter) convertJSON(s string, ar *core.PlanArena) (*core.Plan, error) {
	sc := newJSONScan(s, ar)
	plan := &core.Plan{Source: "neo4j"}
	err := sc.ScanObject(func(key string) error {
		if key == "plan" {
			if sc.Peek() != '{' {
				return sc.SkipValue()
			}
			root, err := c.scanJSONNode(&sc, ar)
			if err != nil {
				return err
			}
			plan.Root = root
			return nil
		}
		v, err := sc.scanValue()
		if err != nil {
			return err
		}
		name, cat := c.reg.ResolveProperty("neo4j", key)
		addPlanPropTyped(ar, plan, cat, name, v)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("convert: neo4j json: %w", err)
	}
	if plan.Root == nil {
		return nil, fmt.Errorf("convert: neo4j json: no plan object")
	}
	return plan, nil
}

//uplan:hotpath
func (c *neo4jConverter) scanJSONNode(sc *jsonScan, ar *core.PlanArena) (*core.Node, error) {
	node := newJSONNodeIn(ar)
	sawOp := false
	err := sc.ScanObject(func(key string) error {
		switch key {
		case "operatorType":
			name, ok, err := sc.ScanStringValue()
			if err != nil {
				return err
			}
			if ok {
				node.Op = c.reg.ResolveOperation("neo4j", name)
				sawOp = true
			}
			return nil
		case "arguments":
			if sc.Peek() != '{' {
				return sc.SkipValue()
			}
			return sc.ScanObject(func(ak string) error {
				v, err := sc.scanValue()
				if err != nil {
					return err
				}
				switch ak {
				case "EstimatedRows":
					addTypedProp(ar, node, core.Cardinality, "estimated rows", v)
				case "Rows":
					addTypedProp(ar, node, core.Cardinality, "actual rows", v)
				default:
					pname, cat := c.reg.ResolveProperty("neo4j", ak)
					addTypedProp(ar, node, cat, pname, v)
				}
				return nil
			})
		case "children":
			if sc.Peek() != '[' {
				return sc.SkipValue()
			}
			return sc.ScanArray(func(int) error {
				if sc.Peek() != '{' {
					return sc.SkipValue()
				}
				child, err := c.scanJSONNode(sc, ar)
				if err != nil {
					return err
				}
				ar.AddChildIn(node, child)
				return nil
			})
		default:
			return sc.SkipValue()
		}
	})
	if err != nil {
		return nil, err
	}
	if !sawOp {
		node.Op = c.reg.ResolveOperation("neo4j", "")
	}
	return node, nil
}

// -------------------------------------------------------- SQL Server (XML)

type sqlserverConverter struct{ reg *core.Registry }

func (c *sqlserverConverter) Dialect() string { return "sqlserver" }

type ssRelOp struct {
	PhysicalOp    string    `xml:"PhysicalOp,attr"`
	LogicalOp     string    `xml:"LogicalOp,attr"`
	EstimateRows  string    `xml:"EstimateRows,attr"`
	EstimatedCost string    `xml:"EstimatedTotalSubtreeCost,attr"`
	Children      []ssRelOp `xml:"RelOp"`
	Object        ssObject  `xml:"Object"`
	InnerXML      []byte    `xml:",innerxml"`
}

type ssObject struct {
	Table string `xml:"Table,attr"`
}

func (c *sqlserverConverter) Convert(s string) (*core.Plan, error) {
	return convertPooled(c, s)
}

func (c *sqlserverConverter) ConvertIn(s string, ar *core.PlanArena) (*core.Plan, error) {
	if !strings.Contains(s, "<ShowPlanXML") {
		// SHOWPLAN_TEXT / STATISTICS PROFILE tabular fallbacks.
		if strings.HasPrefix(strings.TrimSpace(s), "+") {
			return c.convertProfileTable(s, ar)
		}
		if strings.Contains(s, "StmtText") {
			return c.convertText(s, ar)
		}
		return nil, fmt.Errorf("convert: sqlserver: unrecognized input")
	}
	// Locate the top RelOp elements inside the document.
	dec := xml.NewDecoder(strings.NewReader(s))
	plan := &core.Plan{Source: "sqlserver"}
	for {
		tok, err := dec.Token()
		if err != nil {
			break
		}
		if se, ok := tok.(xml.StartElement); ok && se.Name.Local == "RelOp" {
			var rel ssRelOp
			if err := dec.DecodeElement(&rel, &se); err != nil {
				return nil, fmt.Errorf("convert: sqlserver xml: %w", err)
			}
			plan.Root = c.relOpNode(rel, ar)
			break
		}
	}
	if plan.Root == nil {
		return nil, fmt.Errorf("convert: sqlserver xml: no RelOp element")
	}
	return plan, nil
}

func (c *sqlserverConverter) relOpNode(rel ssRelOp, ar *core.PlanArena) *core.Node {
	op := c.reg.ResolveOperation("sqlserver", rel.PhysicalOp)
	node := ar.NewNodeIn(op.Category, op.Name)
	if rel.EstimateRows != "" {
		name, cat := c.reg.ResolveProperty("sqlserver", "EstimateRows")
		addTypedProp(ar, node, cat, name, parseScalar(rel.EstimateRows))
	}
	if rel.EstimatedCost != "" {
		name, cat := c.reg.ResolveProperty("sqlserver", "EstimatedTotalSubtreeCost")
		addTypedProp(ar, node, cat, name, parseScalar(rel.EstimatedCost))
	}
	if rel.LogicalOp != "" {
		addTypedProp(ar, node, core.Configuration, "logical operation", core.Str(rel.LogicalOp))
	}
	if rel.Object.Table != "" {
		addTypedProp(ar, node, core.Configuration, "name object",
			core.Str(strings.Trim(rel.Object.Table, "[]")))
	}
	// Extract simple child elements (e.g. <Predicate>…</Predicate>) from
	// the inner XML, skipping nested RelOps which are handled structurally.
	for key, val := range simpleXMLElements(rel.InnerXML) {
		name, cat := c.reg.ResolveProperty("sqlserver", key)
		addTypedProp(ar, node, cat, name, parseScalar(val))
	}
	for _, child := range rel.Children {
		ar.AddChildIn(node, c.relOpNode(child, ar))
	}
	return node
}

// simpleXMLElements extracts top-level scalar elements from an XML
// fragment, skipping RelOp and Object subtrees.
func simpleXMLElements(fragment []byte) map[string]string {
	out := map[string]string{}
	dec := xml.NewDecoder(bytes.NewReader(fragment))
	depth := 0
	current := ""
	var text strings.Builder
	for {
		tok, err := dec.Token()
		if err != nil {
			break
		}
		switch t := tok.(type) {
		case xml.StartElement:
			depth++
			if depth == 1 {
				if t.Name.Local == "RelOp" || t.Name.Local == "Object" {
					if err := dec.Skip(); err != nil {
						return out
					}
					depth--
					continue
				}
				current = t.Name.Local
				text.Reset()
			}
		case xml.CharData:
			if depth == 1 && current != "" {
				text.Write(t)
			}
		case xml.EndElement:
			if depth == 1 && current != "" {
				out[current] = strings.TrimSpace(text.String())
				current = ""
			}
			depth--
		}
	}
	return out
}

// convertProfileTable parses SET STATISTICS PROFILE tabular output: the
// StmtText column carries a "|--" tree indented two spaces per level.
func (c *sqlserverConverter) convertProfileTable(s string, ar *core.PlanArena) (*core.Plan, error) {
	rows, header, err := parseAlignedTable(s)
	if err != nil {
		return nil, err
	}
	stmtIdx, estIdx, costIdx, rowsIdx := -1, -1, -1, -1
	for i, h := range header {
		switch h {
		case "StmtText":
			stmtIdx = i
		case "EstimateRows":
			estIdx = i
		case "TotalSubtreeCost":
			costIdx = i
		case "Rows":
			rowsIdx = i
		}
	}
	if stmtIdx < 0 {
		return nil, fmt.Errorf("convert: sqlserver table lacks StmtText column")
	}
	plan := &core.Plan{Source: "sqlserver"}
	type frame struct {
		node  *core.Node
		depth int
	}
	stack := make([]frame, 0, 8)
	for _, r := range rows {
		cell := r[stmtIdx]
		bar := strings.Index(cell, "|--")
		depth := 0
		body := strings.TrimSpace(cell)
		if bar >= 0 {
			depth = bar / 2
			body = strings.TrimSpace(cell[bar+3:])
		}
		name := body
		if i := strings.IndexAny(body, "(["); i > 0 {
			name = strings.TrimSpace(body[:i])
		}
		op := c.reg.ResolveOperation("sqlserver", name)
		node := ar.NewNodeIn(op.Category, op.Name)
		if i := strings.Index(body, "(["); i >= 0 {
			rest := body[i+2:]
			if j := strings.Index(rest, "]"); j >= 0 {
				addTypedProp(ar, node, core.Configuration, "name object", core.Str(rest[:j]))
			}
		}
		if estIdx >= 0 && strings.TrimSpace(r[estIdx]) != "" {
			addTypedProp(ar, node, core.Cardinality, "estimated rows", parseScalar(r[estIdx]))
		}
		if costIdx >= 0 && strings.TrimSpace(r[costIdx]) != "" {
			addTypedProp(ar, node, core.Cost, "total cost", parseScalar(r[costIdx]))
		}
		if rowsIdx >= 0 && strings.TrimSpace(r[rowsIdx]) != "" {
			addTypedProp(ar, node, core.Cardinality, "actual rows", parseScalar(r[rowsIdx]))
		}
		for len(stack) > 0 && stack[len(stack)-1].depth >= depth {
			stack = stack[:len(stack)-1]
		}
		if len(stack) == 0 {
			if plan.Root != nil {
				return nil, fmt.Errorf("convert: sqlserver table: multiple roots")
			}
			plan.Root = node
		} else {
			ar.AddChildIn(stack[len(stack)-1].node, node)
		}
		stack = append(stack, frame{node, depth})
	}
	if plan.Root == nil {
		return nil, fmt.Errorf("convert: sqlserver table: empty plan")
	}
	return plan, nil
}

// convertText parses SHOWPLAN_TEXT output: "|--" nesting.
func (c *sqlserverConverter) convertText(s string, ar *core.PlanArena) (*core.Plan, error) {
	plan := &core.Plan{Source: "sqlserver"}
	type frame struct {
		node  *core.Node
		depth int
	}
	stack := make([]frame, 0, 8)
	for it := newLineIter(s); it.next(); {
		line := strings.TrimRight(it.line, " ")
		t := strings.TrimSpace(line)
		if t == "" || t == "StmtText" || strings.HasPrefix(t, "---") {
			continue
		}
		bar := strings.Index(line, "|--")
		depth := 0
		body := t
		if bar >= 0 {
			depth = bar/5 + 1
			body = strings.TrimSpace(line[bar+3:])
		}
		name := body
		if i := strings.IndexAny(body, "("); i > 0 {
			name = strings.TrimSpace(body[:i])
		}
		if i := strings.Index(name, " WHERE:"); i > 0 {
			name = strings.TrimSpace(name[:i])
		}
		op := c.reg.ResolveOperation("sqlserver", name)
		node := ar.NewNodeIn(op.Category, op.Name)
		if i := strings.Index(body, "OBJECT:(["); i >= 0 {
			rest := body[i+9:]
			if j := strings.Index(rest, "]"); j >= 0 {
				addTypedProp(ar, node, core.Configuration, "name object", core.Str(rest[:j]))
			}
		}
		if i := strings.Index(body, "WHERE:("); i >= 0 {
			rest := body[i+7:]
			if j := strings.LastIndex(rest, ")"); j >= 0 {
				name, cat := c.reg.ResolveProperty("sqlserver", "Predicate")
				addTypedProp(ar, node, cat, name, core.Str(rest[:j]))
			}
		}
		for len(stack) > 0 && stack[len(stack)-1].depth >= depth {
			stack = stack[:len(stack)-1]
		}
		if len(stack) == 0 {
			if plan.Root != nil {
				return nil, fmt.Errorf("convert: sqlserver text: multiple roots")
			}
			plan.Root = node
		} else {
			ar.AddChildIn(stack[len(stack)-1].node, node)
		}
		stack = append(stack, frame{node, depth})
	}
	if plan.Root == nil {
		return nil, fmt.Errorf("convert: sqlserver text: no plan found")
	}
	return plan, nil
}

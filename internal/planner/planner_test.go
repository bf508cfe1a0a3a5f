package planner

import (
	"strings"
	"testing"

	"uplan/internal/catalog"
	"uplan/internal/datum"
	"uplan/internal/sql"
)

func testSchema(t *testing.T) *catalog.Schema {
	t.Helper()
	s := catalog.NewSchema()
	t0 := &catalog.Table{Name: "t0", Columns: []catalog.Column{
		{Name: "c0", Type: catalog.TInt, PrimaryKey: true},
		{Name: "c1", Type: catalog.TInt},
	}}
	t0.Indexes = append(t0.Indexes, &catalog.Index{
		Name: "t0_pkey", Table: "t0", Columns: []string{"c0"}, Unique: true, Primary: true,
	})
	if err := s.AddTable(t0); err != nil {
		t.Fatal(err)
	}
	t1 := &catalog.Table{Name: "t1", Columns: []catalog.Column{
		{Name: "c0", Type: catalog.TInt},
		{Name: "v", Type: catalog.TText},
	}}
	if err := s.AddTable(t1); err != nil {
		t.Fatal(err)
	}
	s.SetStats("t0", &catalog.TableStats{RowCount: 100000, Columns: map[string]*catalog.ColumnStats{
		"c0": {Distinct: 100000, Min: datum.Int(1), Max: datum.Int(100000)},
		"c1": {Distinct: 100},
	}})
	s.SetStats("t1", &catalog.TableStats{RowCount: 50, Columns: map[string]*catalog.ColumnStats{
		"c0": {Distinct: 50},
	}})
	return s
}

func mustPlan(t *testing.T, pl *Planner, q string) *PhysOp {
	t.Helper()
	plan, err := pl.Plan(sql.MustParse(q))
	if err != nil {
		t.Fatalf("Plan(%q): %v", q, err)
	}
	return plan
}

func kinds(p *PhysOp) []OpKind {
	var out []OpKind
	p.Walk(func(op *PhysOp, _ int) { out = append(out, op.Kind) })
	return out
}

func hasKind(p *PhysOp, k OpKind) bool {
	for _, kk := range kinds(p) {
		if kk == k {
			return true
		}
	}
	return false
}

func TestPlanShapeSimpleScan(t *testing.T) {
	pl := New(testSchema(t), Options{})
	p := mustPlan(t, pl, "SELECT c0 FROM t0")
	if p.Kind != OpProject || p.Children[0].Kind != OpSeqScan {
		t.Fatalf("plan:\n%s", p)
	}
	if p.EstRows != 100000 {
		t.Errorf("EstRows = %v", p.EstRows)
	}
}

func TestPlanPushdownAndIndexSelection(t *testing.T) {
	pl := New(testSchema(t), Options{})
	// Selective predicate on the indexed PK: index scan wins on a big table.
	p := mustPlan(t, pl, "SELECT c1 FROM t0 WHERE c0 = 42")
	scan := p.Children[0]
	if scan.Kind != OpIndexScan {
		t.Fatalf("expected IndexScan, got:\n%s", p)
	}
	if scan.Index != "t0_pkey" || scan.IndexCond == nil {
		t.Errorf("index scan fields: %+v", scan)
	}
	// Unindexed column keeps the filter in a seq scan.
	p = mustPlan(t, pl, "SELECT c1 FROM t0 WHERE c1 = 42")
	scan = p.Children[0]
	if scan.Kind != OpSeqScan || scan.Filter == nil {
		t.Fatalf("expected filtered SeqScan, got:\n%s", p)
	}
}

func TestPlanEstimatesDecreaseWithPredicates(t *testing.T) {
	pl := New(testSchema(t), Options{})
	base := mustPlan(t, pl, "SELECT c0 FROM t0")
	filtered := mustPlan(t, pl, "SELECT c0 FROM t0 WHERE c1 = 5")
	if filtered.EstRows >= base.EstRows {
		t.Errorf("predicate should reduce estimate: %v >= %v",
			filtered.EstRows, base.EstRows)
	}
	// CERT's core monotonicity property.
	more := mustPlan(t, pl, "SELECT c0 FROM t0 WHERE c1 = 5 AND c0 < 100")
	if more.EstRows > filtered.EstRows {
		t.Errorf("extra conjunct must not increase estimate: %v > %v",
			more.EstRows, filtered.EstRows)
	}
}

func TestPlanQuirkInflatesEstimate(t *testing.T) {
	pl := New(testSchema(t), Options{Quirks: EstimatorQuirks{PredicateInflatesEstimate: 500000}})
	base := mustPlan(t, pl, "SELECT c0 FROM t0")
	filtered := mustPlan(t, pl, "SELECT c0 FROM t0 WHERE c1 = 5")
	if filtered.EstRows <= base.EstRows {
		t.Errorf("quirk should inflate the filtered estimate: %v <= %v",
			filtered.EstRows, base.EstRows)
	}
}

func TestPlanJoinSelection(t *testing.T) {
	pl := New(testSchema(t), Options{})
	p := mustPlan(t, pl, "SELECT t0.c0 FROM t0 INNER JOIN t1 ON t0.c0 = t1.c0")
	if !hasKind(p, OpHashJoin) {
		t.Fatalf("expected hash join on large tables:\n%s", p)
	}
	join := p.Children[0]
	if len(join.HashKeysL) != 1 || len(join.HashKeysR) != 1 {
		t.Errorf("hash keys not extracted: %+v", join)
	}
	// Forced preferences.
	plNL := New(testSchema(t), Options{Join: JoinPreferNL})
	if !hasKind(mustPlan(t, plNL, "SELECT t0.c0 FROM t0 INNER JOIN t1 ON t0.c0 = t1.c0"), OpNLJoin) {
		t.Error("JoinPreferNL ignored")
	}
	plM := New(testSchema(t), Options{Join: JoinPreferMerge})
	if !hasKind(mustPlan(t, plM, "SELECT t0.c0 FROM t0 INNER JOIN t1 ON t0.c0 = t1.c0"), OpMergeJoin) {
		t.Error("JoinPreferMerge ignored")
	}
	// Non-equi join cannot hash.
	p = mustPlan(t, pl, "SELECT t0.c0 FROM t0 INNER JOIN t1 ON t0.c0 < t1.c0")
	if !hasKind(p, OpNLJoin) {
		t.Errorf("non-equi join should be NL:\n%s", p)
	}
}

func TestPlanAggregates(t *testing.T) {
	pl := New(testSchema(t), Options{})
	p := mustPlan(t, pl, "SELECT c1, COUNT(*) FROM t0 GROUP BY c1 HAVING COUNT(*) > 2")
	ks := kinds(p)
	joined := ""
	for _, k := range ks {
		joined += string(k) + " "
	}
	if !strings.Contains(joined, string(OpHashAgg)) ||
		!strings.Contains(joined, string(OpFilter)) {
		t.Fatalf("agg plan: %v", ks)
	}
	plS := New(testSchema(t), Options{Agg: AggPreferSort})
	if !hasKind(mustPlan(t, plS, "SELECT c1, COUNT(*) FROM t0 GROUP BY c1"), OpSortAgg) {
		t.Error("AggPreferSort ignored")
	}
}

func TestPlanTopNFusion(t *testing.T) {
	pl := New(testSchema(t), Options{FuseTopN: true})
	p := mustPlan(t, pl, "SELECT c0 FROM t0 ORDER BY c0 LIMIT 5")
	if p.Kind != OpTopN || p.Limit != 5 {
		t.Fatalf("expected TopN root:\n%s", p)
	}
	plain := New(testSchema(t), Options{})
	p = mustPlan(t, plain, "SELECT c0 FROM t0 ORDER BY c0 LIMIT 5")
	if p.Kind != OpLimit || p.Children[0].Kind != OpSort {
		t.Fatalf("expected Limit over Sort:\n%s", p)
	}
}

func TestPlanCompound(t *testing.T) {
	pl := New(testSchema(t), Options{})
	p := mustPlan(t, pl, "SELECT c0 FROM t0 UNION SELECT c0 FROM t1")
	if p.Kind != OpUnion || len(p.Children) != 2 {
		t.Fatalf("compound plan:\n%s", p)
	}
	if _, err := pl.Plan(sql.MustParse("SELECT c0, c1 FROM t0 UNION SELECT c0 FROM t1")); err == nil {
		t.Error("arity mismatch must fail")
	}
}

func TestPlanSubplans(t *testing.T) {
	pl := New(testSchema(t), Options{})
	p := mustPlan(t, pl, "SELECT c0 FROM t0 WHERE c1 IN (SELECT c0 FROM t1)")
	found := 0
	p.Walk(func(op *PhysOp, _ int) { found += len(op.Subplans) })
	if found != 1 {
		t.Fatalf("expected one subplan, got %d:\n%s", found, p)
	}
}

func TestPlanDML(t *testing.T) {
	pl := New(testSchema(t), Options{})
	p := mustPlan(t, pl, "INSERT INTO t0 VALUES (1, 2)")
	if p.Kind != OpInsert {
		t.Errorf("insert plan kind = %v", p.Kind)
	}
	p = mustPlan(t, pl, "UPDATE t0 SET c1 = 0 WHERE c0 = 5")
	if p.Kind != OpUpdate || len(p.Children) != 1 {
		t.Errorf("update plan:\n%s", p)
	}
	p = mustPlan(t, pl, "DELETE FROM t0 WHERE c0 = 5")
	if p.Kind != OpDelete {
		t.Errorf("delete plan:\n%s", p)
	}
	p = mustPlan(t, pl, "CREATE TABLE x (a INT)")
	if p.Kind != OpCreateTable {
		t.Errorf("create table plan kind = %v", p.Kind)
	}
	p = mustPlan(t, pl, "CREATE INDEX ix ON t0 (c1)")
	if p.Kind != OpCreateIndex {
		t.Errorf("create index plan kind = %v", p.Kind)
	}
}

func TestPlanExplainUnwraps(t *testing.T) {
	pl := New(testSchema(t), Options{})
	p := mustPlan(t, pl, "EXPLAIN SELECT c0 FROM t0")
	if p.Kind != OpProject {
		t.Errorf("EXPLAIN should plan the inner statement, got %v", p.Kind)
	}
}

func TestPlanErrors(t *testing.T) {
	pl := New(testSchema(t), Options{})
	bad := []string{
		"SELECT c0 FROM missing",
		"UPDATE missing SET a = 1",
	}
	for _, q := range bad {
		if _, err := pl.Plan(sql.MustParse(q)); err == nil {
			t.Errorf("Plan(%q) should fail", q)
		}
	}
}

func TestSplitJoinConjuncts(t *testing.T) {
	e := sql.MustParse("SELECT 1 FROM t0 WHERE c0 = 1 AND c1 = 2 AND c0 < 5").(*sql.Select)
	cs := SplitConjuncts(e.Core.Where)
	if len(cs) != 3 {
		t.Fatalf("conjuncts = %d", len(cs))
	}
	back := JoinConjuncts(cs)
	if len(SplitConjuncts(back)) != 3 {
		t.Error("JoinConjuncts round trip broken")
	}
	if JoinConjuncts(nil) != nil {
		t.Error("empty conjuncts should be nil")
	}
}

func TestEstimatorSelectivities(t *testing.T) {
	s := testSchema(t)
	e := &Estimator{Schema: s}
	eq := e.Selectivity(sql.MustParse("SELECT 1 FROM t0 WHERE c1 = 5").(*sql.Select).Core.Where, "t0")
	if eq != 0.01 { // distinct = 100
		t.Errorf("eq selectivity = %v, want 0.01", eq)
	}
	and := e.Selectivity(sql.MustParse("SELECT 1 FROM t0 WHERE c1 = 5 AND c1 = 6").(*sql.Select).Core.Where, "t0")
	if and >= eq {
		t.Errorf("AND must compound: %v >= %v", and, eq)
	}
	or := e.Selectivity(sql.MustParse("SELECT 1 FROM t0 WHERE c1 = 5 OR c1 = 6").(*sql.Select).Core.Where, "t0")
	if or <= eq {
		t.Errorf("OR must widen: %v <= %v", or, eq)
	}
	always := e.Selectivity(&sql.Literal{Val: datum.Bool(true)}, "t0")
	if always != 1 {
		t.Errorf("TRUE selectivity = %v", always)
	}
}

func TestBestIndex(t *testing.T) {
	s := testSchema(t)
	e := &Estimator{Schema: s}
	tbl := s.Table("t0")
	where := sql.MustParse("SELECT 1 FROM t0 WHERE c0 = 5 AND c1 > 2").(*sql.Select).Core.Where
	m := e.BestIndex(tbl, where)
	if m == nil || m.Index.Name != "t0_pkey" {
		t.Fatalf("BestIndex = %+v", m)
	}
	if m.IndexCond == nil || m.Residual == nil {
		t.Errorf("index/residual split: %+v", m)
	}
	if e.BestIndex(tbl, sql.MustParse("SELECT 1 FROM t0 WHERE c1 = 5").(*sql.Select).Core.Where) != nil {
		t.Error("no index on c1")
	}
}

// TestPlanStarSchema pins the projection schema of star items: a lone
// star shares its input's schema, and qualified stars follow the select
// list's order, not the input's.
func TestPlanStarSchema(t *testing.T) {
	pl := New(testSchema(t), Options{})
	p := mustPlan(t, pl, "SELECT * FROM t1 WHERE c0 > 5")
	if got, want := p.ColumnNames(), p.Children[0].ColumnNames(); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("SELECT * columns %v, scan columns %v", got, want)
	}
	p = mustPlan(t, pl, "SELECT t1.*, t0.* FROM t0 INNER JOIN t1 ON t0.c0 = t1.c0")
	var got []string
	for _, c := range p.Schema {
		got = append(got, c.Table+"."+c.Name)
	}
	if want := "t1.c0,t1.v,t0.c0,t0.c1"; strings.Join(got, ",") != want {
		t.Fatalf("SELECT t1.*, t0.* columns %v, want %s", got, want)
	}
}

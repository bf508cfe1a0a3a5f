package tlp

import (
	"fmt"
	"reflect"
	"testing"

	"uplan/internal/datum"
	"uplan/internal/dbms"
	"uplan/internal/sql"
	"uplan/internal/sqlancer"
)

// checkRef is Check as it was before the one-parse path: four query
// texts, each run through Execute. Check must reproduce its violations,
// its error texts and its statement counts.
func checkRef(e Engine, table, predicate string) (*Violation, error) {
	base := fmt.Sprintf("SELECT * FROM %s", table)
	parts := [3]string{
		fmt.Sprintf("SELECT * FROM %s WHERE %s", table, predicate),
		fmt.Sprintf("SELECT * FROM %s WHERE NOT (%s)", table, predicate),
		fmt.Sprintf("SELECT * FROM %s WHERE (%s) IS NULL", table, predicate),
	}
	baseRes, err := e.Execute(base)
	if err != nil {
		return nil, fmt.Errorf("tlp: base query: %w", err)
	}
	var union [][]datum.D
	for _, q := range parts {
		res, err := e.Execute(q)
		if err != nil {
			return nil, fmt.Errorf("tlp: partition %q: %w", q, err)
		}
		union = append(union, res.Rows...)
	}
	if diff := multisetDiff(baseRes.Rows, union); diff != "" {
		return &Violation{
			Base:       base,
			Partitions: parts,
			BaseRows:   len(baseRes.Rows),
			UnionRows:  len(union),
			Detail:     diff,
		}, nil
	}
	return nil, nil
}

// campaignEngine returns an engine with the campaign's schema shape
// (2 tables x 12 rows) from generator seed 1.
func campaignEngine(t testing.TB, quirky bool) *dbms.Engine {
	t.Helper()
	e := dbms.MustNew("postgresql")
	e.Quirks.NotIgnoresNull = quirky
	for _, s := range sqlancer.New(1).SchemaSQL(2, 12) {
		if _, err := e.Execute(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Analyze(); err != nil {
		t.Fatal(err)
	}
	return e
}

// predicates returns n generated TLP inputs over the campaign schema.
func predicates(seed int64, n int) [][2]string {
	gen := sqlancer.New(seed)
	gen.SchemaSQL(2, 0)
	out := make([][2]string, n)
	for i := range out {
		out[i][0], out[i][1] = gen.PartitionableQuery()
	}
	return out
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// sameAsRef runs Check and checkRef on two engines with the same history
// and fails unless violations, error texts and statement counts agree.
// It returns the violation.
func sameAsRef(t *testing.T, fast, ref *dbms.Engine, table, pred string) *Violation {
	t.Helper()
	v1, err1 := Check(fast, table, pred)
	v2, err2 := checkRef(ref, table, pred)
	if errText(err1) != errText(err2) {
		t.Fatalf("%s / %q: error %q, string path gives %q", table, pred, errText(err1), errText(err2))
	}
	if !reflect.DeepEqual(v1, v2) {
		t.Fatalf("%s / %q: violation %+v, string path gives %+v", table, pred, v1, v2)
	}
	if fast.Queries() != ref.Queries() {
		t.Fatalf("%s / %q: %d statements, string path counts %d", table, pred, fast.Queries(), ref.Queries())
	}
	return v1
}

// TestTLPPartitionASTsMatchParse pins the premise of the one-parse path:
// for generated predicates, each statement partitionStmts builds equals
// sql.Parse of that query's text.
func TestTLPPartitionASTsMatchParse(t *testing.T) {
	built := 0
	for _, in := range predicates(31, 2500) {
		table, pred := in[0], in[1]
		stmts := partitionStmts(table, pred)
		if stmts == nil {
			continue
		}
		built++
		for i, text := range queryTexts(table, pred) {
			want, err := sql.Parse(text)
			if err != nil {
				t.Fatalf("%q: built an AST, but the text does not parse: %v", text, err)
			}
			if !reflect.DeepEqual(stmts[i], want) {
				t.Fatalf("%q: built AST %s differs from the parse %s", text, stmts[i].SQL(), want.SQL())
			}
		}
	}
	if built < 2000 {
		t.Fatalf("only %d of 2500 generated predicates took the AST path", built)
	}
}

// TestTLPMatchesStringPath compares Check with the string-only reference
// on generated predicates, on an engine with a NOT defect so that
// violations are rendered too.
func TestTLPMatchesStringPath(t *testing.T) {
	fast, ref := campaignEngine(t, true), campaignEngine(t, true)
	violations := 0
	for _, in := range predicates(32, 400) {
		if sameAsRef(t, fast, ref, in[0], in[1]) != nil {
			violations++
		}
	}
	if violations == 0 {
		t.Fatal("no generated predicate exposed the NOT defect; the test renders no violation")
	}
}

// TestTLPFallback covers inputs the AST path must leave to the string
// path (an unparseable predicate, a comment or semicolon, clauses after
// the WHERE, a table name that is not one plain identifier) and inputs
// it takes but that fail to execute. Each gives the same error text and
// statement count as the string path.
func TestTLPFallback(t *testing.T) {
	for _, tc := range []struct {
		table, pred string
		ast         bool
	}{
		{"t0", "c0 >", false},
		{"t0", "c0 = 1 --", false},
		{"t0", "c0 = 1 -- x\n", false},
		{"t0", "c0 = 1;", false},
		{"t0", "c0 = 1 ORDER BY c1", false},
		{"t0", "c0 = 1 LIMIT 2", false},
		{"t0", "c0 = 1 GROUP BY c1", false},
		{"t0", "c0 = 1 UNION SELECT * FROM t1", false},
		{"t0", "c0 = 1) OR (c1 = 2", false},
		{"t0", "", false},
		{"t0 x", "c0 = 1", false},
		{"t0 WHERE c0 = 1 OR", "c1 = 2", false},
		{"missing", "c0 = 1", true},
		{"t0", "nosuch = 1", true},
		{"t0", "c0 = 1", true},
	} {
		if ast := partitionStmts(tc.table, tc.pred) != nil; ast != tc.ast {
			t.Errorf("%s / %q: AST path %v, want %v", tc.table, tc.pred, ast, tc.ast)
		}
		sameAsRef(t, campaignEngine(t, false), campaignEngine(t, false), tc.table, tc.pred)
	}
}

// FuzzTLPPartitions is the differential target of the two paths: for
// any table name and predicate, Check agrees with the string-only
// reference, and when partitionStmts builds statements, each returns the
// same rows (as a multiset) and the same error as its text.
func FuzzTLPPartitions(f *testing.F) {
	for _, in := range predicates(33, 24) {
		f.Add(in[0], in[1])
	}
	for _, pred := range []string{
		"c0 >", "c0 = 1 --", "c0 = 1;", "c0 = 1 ORDER BY c1", "c0 = 1 GROUP BY c1",
		"c0 = 1) OR (c1 = 2", "(SELECT 1)", "NOT c0 IS NULL", "c1 = 1e", "c1 = 1e-",
		"c0 IN (SELECT c0 FROM t1)", "'a'' b' = c2", "",
	} {
		f.Add("t0", pred)
	}
	f.Fuzz(func(t *testing.T, table, pred string) {
		fast, ref := campaignEngine(t, false), campaignEngine(t, false)
		sameAsRef(t, fast, ref, table, pred)
		stmts := partitionStmts(table, pred)
		if stmts == nil {
			return
		}
		for i, text := range queryTexts(table, pred) {
			got, err1 := fast.ExecuteStmt(stmts[i])
			want, err2 := ref.Execute(text)
			if errText(err1) != errText(err2) {
				t.Fatalf("%q: error %q from the AST, %q from the text", text, errText(err1), errText(err2))
			}
			if err1 != nil {
				continue
			}
			if !reflect.DeepEqual(got.Columns, want.Columns) {
				t.Fatalf("%q: columns %v from the AST, %v from the text", text, got.Columns, want.Columns)
			}
			if diff := CompareResults(got, want); diff != "" {
				t.Fatalf("%q: rows from the AST differ from the text's: %s", text, diff)
			}
		}
	})
}

// TestCheckAllocs guards a whole TLP check on the campaign schema: one
// parse, four plans and executions over stored rows, and the compare.
// The ceilings are the measured counts.
func TestCheckAllocs(t *testing.T) {
	e := campaignEngine(t, false)
	for _, tc := range []struct {
		table, pred string
		max         float64
	}{
		{"t0", "c1 > 31", 61},
		{"t0", "c2 IS NULL", 60},
		{"t0", "(c1 IS NOT NULL AND c2 BETWEEN 11 AND 28)", 70},
	} {
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := Check(e, tc.table, tc.pred); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tc.max {
			t.Errorf("Check(%s, %q): %.1f allocs, want <= %.0f", tc.table, tc.pred, allocs, tc.max)
		}
	}
}

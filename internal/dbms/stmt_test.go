package dbms

import (
	"reflect"
	"testing"

	"uplan/internal/datum"
	"uplan/internal/exec"
	"uplan/internal/sql"
	"uplan/internal/sqlancer"
)

// TestPlanningLeavesASTUntouched pins what the statement-level entry
// points rely on: planning, shaping, serializing and executing only read
// the AST. Of two engines with identical histories, one re-parses every
// call and the other re-uses one AST for all of them; plans, results and
// statement counts must agree, and the re-used AST must still equal a
// fresh parse afterwards. Two dialects with different planner options
// cover different plan shapes.
func TestPlanningLeavesASTUntouched(t *testing.T) {
	for _, name := range []string{"postgresql", "tidb"} {
		fresh, reused := MustNew(name), MustNew(name)
		gen := sqlancer.New(3)
		calls := 0 // statements each engine was handed
		for _, s := range gen.SchemaSQL(3, 10) {
			calls++
			for _, e := range []*Engine{fresh, reused} {
				if _, err := e.Execute(s); err != nil {
					t.Fatalf("%s: %q: %v", name, s, err)
				}
			}
		}
		for _, e := range []*Engine{fresh, reused} {
			if err := e.Analyze(); err != nil {
				t.Fatal(err)
			}
		}
		format := fresh.DefaultFormat()
		for i := 0; i < 300; i++ {
			q := gen.Query()
			if i%3 == 0 {
				table, pred := gen.PartitionableQuery()
				q = "SELECT * FROM " + table + " WHERE NOT (" + pred + ")"
			}
			stmt, err := sql.Parse(q)
			if err != nil {
				continue
			}
			for rep := 0; rep < 2; rep++ {
				calls += 2
				want, errW := fresh.Explain(q, format)
				got, errG := reused.ExplainStmt(stmt, format)
				if want != got || !sameErr(errW, errG) {
					t.Fatalf("%s: %q: EXPLAIN from a re-used AST differs from a fresh parse:\n%s\n%v\nvs\n%s\n%v", name, q, got, errG, want, errW)
				}
				wantRes, errW := fresh.Execute(q)
				gotRes, errG := reused.ExecuteStmt(stmt)
				if !sameErr(errW, errG) || !sameResult(wantRes, gotRes) {
					t.Fatalf("%s: %q: result from a re-used AST differs from a fresh parse", name, q)
				}
			}
			again, _ := sql.Parse(q)
			if !reflect.DeepEqual(stmt, again) {
				t.Fatalf("%s: %q: planning or execution mutated the AST", name, q)
			}
		}
		if fresh.Queries() != calls || reused.Queries() != calls {
			t.Fatalf("%s: statement counts %d (text) and %d (AST), want %d", name, fresh.Queries(), reused.Queries(), calls)
		}
	}
}

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

func sameResult(a, b *exec.Result) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	if !reflect.DeepEqual(a.Columns, b.Columns) || len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Rows {
		if datum.RowKey(a.Rows[i]) != datum.RowKey(b.Rows[i]) {
			return false
		}
	}
	return true
}

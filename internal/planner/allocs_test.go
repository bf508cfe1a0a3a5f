package planner

import (
	"testing"

	"uplan/internal/sql"
)

// TestPlanSelectStarAllocs guards the planner's share of a TLP query,
// SELECT * FROM t WHERE p. A sequential scan plans in 9 allocations: the
// scan and its schema, the conjunct lists of the WHERE split and of the
// index search, the pushed-down conjuncts, and the projection (operator,
// child list, expressions, and the slab of star column references; it
// shares the scan's schema). No candidate operator is built and thrown
// away, no list grows per column, and no covering-index map is built.
func TestPlanSelectStarAllocs(t *testing.T) {
	pl := New(testSchema(t), Options{})
	stmt := sql.MustParse("SELECT * FROM t1 WHERE c0 > 5")
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := pl.Plan(stmt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 9 {
		t.Fatalf("Plan(SELECT * FROM t1 WHERE c0 > 5): %.1f allocs, want <= 9", allocs)
	}
}

package dbms_test

import (
	"fmt"
	"math"
	"testing"

	"uplan/internal/cert"
	"uplan/internal/datum"
	"uplan/internal/dbms"
	"uplan/internal/exec"
	"uplan/internal/planner"
	"uplan/internal/qpg"
	"uplan/internal/sql"
	"uplan/internal/storage"
	"uplan/internal/tlp"
)

// cappedEngine checks every row the engine returns: scans hand out
// stored rows, which must be capped so that no append reaches storage.
type cappedEngine struct {
	*dbms.Engine
	t    *testing.T
	rows int
}

func (c *cappedEngine) check(res *exec.Result, query string) {
	c.t.Helper()
	if res == nil {
		return
	}
	for _, row := range res.Rows {
		if cap(row) != len(row) {
			c.t.Fatalf("%s: result row has cap %d, len %d", query, cap(row), len(row))
		}
	}
	c.rows += len(res.Rows)
}

func (c *cappedEngine) Execute(q string) (*exec.Result, error) {
	res, err := c.Engine.Execute(q)
	c.check(res, q)
	return res, err
}

func (c *cappedEngine) ExecuteStmt(stmt sql.Statement) (*exec.Result, error) {
	res, err := c.Engine.ExecuteStmt(stmt)
	c.check(res, stmt.SQL())
	return res, err
}

// tableSnapshot deep-copies every live row of every table, by row ID.
func tableSnapshot(e *dbms.Engine) map[string]map[int][]datum.D {
	out := map[string]map[int][]datum.D{}
	for _, def := range e.DB.Schema.Tables() {
		rows := map[int][]datum.D{}
		e.DB.Table(def.Name).Scan(func(id int, row storage.Row) bool {
			rows[id] = append([]datum.D(nil), row...)
			return true
		})
		out[def.Name] = rows
	}
	return out
}

// sameValues compares rows value by value; unlike reflect.DeepEqual it
// treats a NaN as equal to itself.
func sameValues(a, b []datum.D) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.K != y.K || x.I != y.I || x.S != y.S || x.B != y.B ||
			math.Float64bits(x.F) != math.Float64bits(y.F) {
			return false
		}
	}
	return true
}

func sameSnapshot(a, b map[string]map[int][]datum.D) bool {
	if len(a) != len(b) {
		return false
	}
	for name, rows := range a {
		other := b[name]
		if len(rows) != len(other) {
			return false
		}
		for id, row := range rows {
			if !sameValues(row, other[id]) {
				return false
			}
		}
	}
	return true
}

// TestStoredRowsImmutable pins the copy-on-write contract that lets
// scans return stored rows without copying. A QPG, TLP and CERT workload
// without mutations leaves every table exactly as it was; every row the
// TLP queries get back is capped (cap == len), from sequential and from
// index scans; and an UPDATE does not change a row a query returned
// before it.
func TestStoredRowsImmutable(t *testing.T) {
	for _, name := range []string{"postgresql", "mysql", "tidb"} {
		target := dbms.MustNew(name)
		opts := qpg.Options{Queries: 150, StallThreshold: 1 << 30, Seed: 5}
		c, err := qpg.New(target, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Setup(2, 12); err != nil {
			t.Fatal(err)
		}
		for _, e := range []*dbms.Engine{c.Engine, c.Reference} {
			if _, err := e.Execute("CREATE INDEX i0 ON t0 (c0)"); err != nil {
				t.Fatal(err)
			}
			if err := e.Analyze(); err != nil {
				t.Fatal(err)
			}
		}
		before := tableSnapshot(target)

		c.Run(opts)
		if c.Mutations != 0 {
			t.Fatalf("%s: the workload mutated the database %d times", name, c.Mutations)
		}
		checker, err := cert.New(target)
		if err != nil {
			t.Fatal(err)
		}
		checker.Run(c.Gen, 150) // estimates only; findings do not matter here
		capped := &cappedEngine{Engine: target, t: t}
		for i := 0; i < 150; i++ {
			table, pred := c.Gen.PartitionableQuery()
			tlp.Check(capped, table, pred) // errors and violations do not matter here
		}
		if capped.rows == 0 {
			t.Fatalf("%s: the TLP queries returned no rows to check", name)
		}
		if after := tableSnapshot(target); !sameSnapshot(before, after) {
			t.Fatalf("%s: a read-only workload changed stored rows", name)
		}

		// An equality on the indexed column plans an index scan; its rows
		// are stored rows too.
		var v datum.D
		target.DB.Table("t0").Scan(func(_ int, row storage.Row) bool {
			v = row[0]
			return v.IsNull()
		})
		q := fmt.Sprintf("SELECT * FROM t0 WHERE c0 = %s", v)
		plan, err := target.PhysicalPlan(q)
		if err != nil {
			t.Fatal(err)
		}
		scan := plan
		for len(scan.Children) > 0 {
			scan = scan.Children[0]
		}
		if scan.Kind != planner.OpIndexScan && scan.Kind != planner.OpIndexOnlyScan {
			t.Fatalf("%s: %q plans a %s, want an index scan:\n%s", name, q, scan.Kind, plan)
		}
		capped.rows = 0
		if _, err := capped.Execute(q); err != nil {
			t.Fatal(err)
		}
		if capped.rows == 0 {
			t.Fatalf("%s: %q returned no rows", name, q)
		}

		res, err := target.Execute("SELECT * FROM t0")
		if err != nil {
			t.Fatal(err)
		}
		kept := make([][]datum.D, len(res.Rows))
		for i, row := range res.Rows {
			kept[i] = append([]datum.D(nil), row...)
		}
		if _, err := target.Execute("UPDATE t0 SET c0 = c0 + 1, c1 = NULL"); err != nil {
			t.Fatal(err)
		}
		for i, row := range res.Rows {
			if !sameValues(row, kept[i]) {
				t.Fatalf("%s: UPDATE changed a row returned before it: %v, was %v", name, row, kept[i])
			}
		}
		if after := tableSnapshot(target); sameSnapshot(before, after) {
			t.Fatalf("%s: the UPDATE changed nothing; the test lost its mutation", name)
		}
	}
}

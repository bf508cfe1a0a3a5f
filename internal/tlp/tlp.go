// Package tlp implements Ternary Logic Partitioning (Rigger & Su, OOPSLA
// 2020), the test oracle the paper's QPG campaign uses to detect logic
// bugs: for any predicate φ, a query's result must equal the union of the
// results restricted to φ, NOT φ, and φ IS NULL.
package tlp

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"uplan/internal/datum"
	"uplan/internal/exec"
	"uplan/internal/sql"
)

// Engine is the minimal interface TLP needs; *dbms.Engine satisfies it.
// Execute(q) must behave as ExecuteStmt of sql.Parse(q), counting a
// statement that fails to parse as one statement too.
type Engine interface {
	Execute(query string) (*exec.Result, error)
	ExecuteStmt(stmt sql.Statement) (*exec.Result, error)
}

// Violation describes a TLP mismatch.
type Violation struct {
	Base       string
	Partitions [3]string
	BaseRows   int
	UnionRows  int
	Detail     string
}

func (v *Violation) Error() string {
	return fmt.Sprintf("tlp: %s: base has %d rows, partitions have %d (%s)",
		v.Base, v.BaseRows, v.UnionRows, v.Detail)
}

// Check runs the TLP oracle for SELECT * FROM table with the given
// predicate. It returns a Violation when the partition union differs from
// the unpartitioned result, nil when consistent, and an error for
// execution failures (which QPG reports as crash-class bugs).
//
// The first partition is parsed once and the base query and the other
// two partitions are built around its predicate AST (see
// partitionStmts). When that is not possible the four queries run as
// text. Either way the engine sees the same statements in the same order.
//
//uplan:hotpath
func Check(e Engine, table, predicate string) (*Violation, error) {
	stmts := partitionStmts(table, predicate)
	run := func(i int) (*exec.Result, error) {
		if stmts != nil {
			return e.ExecuteStmt(stmts[i])
		}
		return e.Execute(queryTexts(table, predicate)[i])
	}
	baseRes, err := run(0)
	if err != nil {
		return nil, fmt.Errorf("tlp: base query: %w", err)
	}
	var parts [3]*exec.Result
	n := 0
	for i := range parts {
		res, err := run(i + 1)
		if err != nil {
			return nil, fmt.Errorf("tlp: partition %q: %w", queryTexts(table, predicate)[i+1], err)
		}
		parts[i] = res
		n += len(res.Rows)
	}
	union := make([][]datum.D, 0, n)
	for _, res := range parts {
		union = append(union, res.Rows...)
	}
	if diff := multisetDiff(baseRes.Rows, union); diff != "" {
		q := queryTexts(table, predicate)
		return &Violation{
			Base:       q[0],
			Partitions: [3]string{q[1], q[2], q[3]},
			BaseRows:   len(baseRes.Rows),
			UnionRows:  len(union),
			Detail:     diff,
		}, nil
	}
	return nil, nil
}

// queryTexts returns the base query and the three partitions as text.
func queryTexts(table, predicate string) [4]string {
	base := "SELECT * FROM " + table
	return [4]string{
		base,
		base + " WHERE " + predicate,
		base + " WHERE NOT (" + predicate + ")",
		base + " WHERE (" + predicate + ") IS NULL",
	}
}

// partitionASTs holds the statements partitionStmts builds, in one
// allocation.
type partitionASTs struct {
	stmts  [4]sql.Statement
	sels   [3]sql.Select
	cores  [3]sql.SelectCore
	not    sql.Unary
	isNull sql.IsNull
}

// partitionStmts parses the first partition, SELECT * FROM table WHERE p,
// and builds the base query and the NOT (p) and (p) IS NULL partitions
// around the parsed p, in queryTexts order. Each built statement equals
// what sql.Parse returns for its text: the parser makes no node for
// parentheses, so NOT (p) parses to Unary{NOT, p} and (p) IS NULL to
// IsNull{p}. It returns nil, and the caller runs the texts, unless the
// parse gives exactly SELECT * FROM table WHERE p with p the whole
// predicate. A predicate with a line comment or a semicolon is never
// taken: inside the parentheses the comment would swallow the closing
// one, and the semicolon is only legal at the very end.
func partitionStmts(table, predicate string) *[4]sql.Statement {
	if strings.Contains(predicate, "--") || strings.IndexByte(predicate, ';') >= 0 {
		return nil
	}
	stmt, err := sql.Parse("SELECT * FROM " + table + " WHERE " + predicate)
	if err != nil {
		return nil
	}
	sel, ok := stmt.(*sql.Select)
	if !ok || sel.Core == nil || sel.Compound != nil || sel.OrderBy != nil || sel.Limit != nil || sel.Offset != nil {
		return nil
	}
	core := sel.Core
	if core.Where == nil || core.Distinct || core.GroupBy != nil || core.Having != nil || len(core.Items) != 1 {
		return nil
	}
	if star, ok := core.Items[0].Expr.(*sql.Star); !ok || star.Table != "" || core.Items[0].Alias != "" {
		return nil
	}
	if bt, ok := core.From.(*sql.BaseTable); !ok || bt.Name != table {
		return nil
	}
	a := new(partitionASTs)
	a.not = sql.Unary{Op: "NOT", X: core.Where}
	a.isNull = sql.IsNull{X: core.Where}
	for i, where := range [3]sql.Expr{nil, &a.not, &a.isNull} {
		a.cores[i] = sql.SelectCore{Items: core.Items, From: core.From, Where: where}
		a.sels[i] = sql.Select{Core: &a.cores[i]}
	}
	a.stmts = [4]sql.Statement{&a.sels[0], sel, &a.sels[1], &a.sels[2]}
	return &a.stmts
}

// multisetDiff compares two row multisets, returning a short description
// of the first difference or "" when equal.
func multisetDiff(a, b [][]datum.D) string {
	if len(a) != len(b) {
		return fmt.Sprintf("cardinality %d vs %d", len(a), len(b))
	}
	if provablyEqual(a, b) {
		return ""
	}
	ka := sortedKeys(a)
	kb := sortedKeys(b)
	for i := range ka {
		if ka[i] != kb[i] {
			return fmt.Sprintf("row content differs at sorted position %d", i)
		}
	}
	return ""
}

// rowHash is datum.RowHash; tests swap it to force collisions.
var rowHash = datum.RowHash

// hashedRow pairs a row with its hash for provablyEqual's sort.
type hashedRow struct {
	h   uint64
	row []datum.D
}

// provablyEqual is the fast path of the multiset comparisons: it sorts
// both equal-length sides by row hash and compares them pairwise with
// RowKey semantics. It returns true only when that pairing proves the
// multisets equal. False means "not proven" — unequal sides, or equal
// ones the hash order failed to align — and sends the caller down the
// RowKey path, which decides and words every difference.
//
//uplan:hotpath
func provablyEqual(a, b [][]datum.D) bool {
	hs := make([]hashedRow, len(a)+len(b))
	ha, hb := hs[:len(a)], hs[len(a):]
	for i, r := range a {
		ha[i] = hashedRow{rowHash(r), r}
	}
	for i, r := range b {
		hb[i] = hashedRow{rowHash(r), r}
	}
	byHash := func(x, y hashedRow) int { return cmp.Compare(x.h, y.h) }
	slices.SortFunc(ha, byHash)
	slices.SortFunc(hb, byHash)
	for i := range ha {
		if ha[i].h != hb[i].h || !rowsKeyEqual(ha[i].row, hb[i].row) {
			return false
		}
	}
	return true
}

// rowsKeyEqual reports whether two rows have the same RowKey.
func rowsKeyEqual(x, y []datum.D) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if !datum.KeyEqual(x[i], y[i]) {
			return false
		}
	}
	return true
}

func sortedKeys(rows [][]datum.D) []string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = datum.RowKey(r)
	}
	sort.Strings(keys)
	return keys
}

// CompareResults performs differential comparison of two engines' results
// for the same query (order-insensitive). It returns "" when identical.
// QPG uses this as its second oracle alongside TLP, in the spirit of
// differential testing the paper discusses in Section VI.
func CompareResults(a, b *exec.Result) string {
	if len(a.Rows) != len(b.Rows) {
		return fmt.Sprintf("row counts differ: %d vs %d", len(a.Rows), len(b.Rows))
	}
	if provablyEqual(a.Rows, b.Rows) {
		return ""
	}
	ka := sortedKeys(a.Rows)
	kb := sortedKeys(b.Rows)
	for i := range ka {
		if ka[i] != kb[i] {
			return fmt.Sprintf("row multisets differ (first at sorted position %d: %s vs %s)",
				i, strings.TrimSpace(ka[i]), strings.TrimSpace(kb[i]))
		}
	}
	return ""
}

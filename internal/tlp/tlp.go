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
)

// Engine is the minimal interface TLP needs; *dbms.Engine satisfies it.
type Engine interface {
	Execute(query string) (*exec.Result, error)
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
func Check(e Engine, table, predicate string) (*Violation, error) {
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

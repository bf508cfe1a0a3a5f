// Package catalog maintains schema metadata and table statistics for the
// simulated engines: table and index definitions plus the statistics
// (row counts, distinct values, min/max, equi-depth histograms) that feed
// the planner's cardinality estimation.
package catalog

import (
	"fmt"
	"sort"
	"strings"

	"uplan/internal/datum"
)

// ColType enumerates column types.
type ColType uint8

// Column types of the engine's SQL subset.
const (
	TInt ColType = iota
	TFloat
	TText
	TBool
)

func (t ColType) String() string {
	switch t {
	case TInt:
		return "INT"
	case TFloat:
		return "FLOAT"
	case TText:
		return "TEXT"
	case TBool:
		return "BOOL"
	}
	return "?"
}

// ParseColType converts a normalized SQL type name to a ColType.
func ParseColType(s string) (ColType, error) {
	switch strings.ToUpper(s) {
	case "INT", "INTEGER":
		return TInt, nil
	case "FLOAT", "REAL", "DECIMAL":
		return TFloat, nil
	case "TEXT", "VARCHAR", "DATE":
		return TText, nil
	case "BOOL", "BOOLEAN":
		return TBool, nil
	}
	return 0, fmt.Errorf("catalog: unknown column type %q", s)
}

// Column describes one table column.
type Column struct {
	Name       string
	Type       ColType
	NotNull    bool
	PrimaryKey bool
}

// Index describes a secondary (or primary) index.
type Index struct {
	Name    string
	Table   string
	Columns []string
	Unique  bool
	Primary bool
}

// Table describes one stored table.
type Table struct {
	Name    string
	Columns []Column
	Indexes []*Index
}

// ColumnIndex returns the ordinal of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	for i, c := range t.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Column returns the named column definition, or nil.
func (t *Table) Column(name string) *Column {
	if i := t.ColumnIndex(name); i >= 0 {
		return &t.Columns[i]
	}
	return nil
}

// IndexOn returns the first index whose leading column is the named column,
// or nil.
func (t *Table) IndexOn(column string) *Index {
	for _, ix := range t.Indexes {
		if len(ix.Columns) > 0 && strings.EqualFold(ix.Columns[0], column) {
			return ix
		}
	}
	return nil
}

// UniqueOn reports whether the named column is, by itself, a key of the
// table: declared PRIMARY KEY, or covered by a single-column unique (or
// primary) index. A multi-column unique index keys only the column
// combination, so it does not qualify. Nil-safe: a nil table, or a
// ghost table registered with no columns and no indexes, has no keys.
func (t *Table) UniqueOn(column string) bool {
	if t == nil {
		return false
	}
	if c := t.Column(column); c != nil && c.PrimaryKey {
		return true
	}
	for _, ix := range t.Indexes {
		if ix != nil && (ix.Unique || ix.Primary) &&
			len(ix.Columns) == 1 && strings.EqualFold(ix.Columns[0], column) {
			return true
		}
	}
	return false
}

// PrimaryKeyColumns returns the declared PRIMARY KEY column names in
// definition order. Nil-safe; empty for keyless and ghost tables.
func (t *Table) PrimaryKeyColumns() []string {
	if t == nil {
		return nil
	}
	var out []string
	for _, c := range t.Columns {
		if c.PrimaryKey {
			out = append(out, c.Name)
		}
	}
	return out
}

// UniqueColumns returns every column that alone keys the table (see
// UniqueOn), in column definition order, without duplicates. Nil-safe.
func (t *Table) UniqueColumns() []string {
	if t == nil {
		return nil
	}
	var out []string
	for _, c := range t.Columns {
		if t.UniqueOn(c.Name) {
			out = append(out, c.Name)
		}
	}
	return out
}

// Schema is a collection of tables with their statistics.
type Schema struct {
	tables map[string]*Table
	order  []string
	stats  map[string]*TableStats
}

// NewSchema returns an empty schema.
func NewSchema() *Schema {
	return &Schema{
		tables: map[string]*Table{},
		stats:  map[string]*TableStats{},
	}
}

// AddTable registers a table definition. It fails if the name is taken.
func (s *Schema) AddTable(t *Table) error {
	key := strings.ToLower(t.Name)
	if _, ok := s.tables[key]; ok {
		return fmt.Errorf("catalog: table %q already exists", t.Name)
	}
	s.tables[key] = t
	s.order = append(s.order, key)
	return nil
}

// DropTable removes a table and its statistics.
func (s *Schema) DropTable(name string) {
	key := strings.ToLower(name)
	delete(s.tables, key)
	delete(s.stats, key)
	for i, k := range s.order {
		if k == key {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
}

// Table returns the named table, or nil.
func (s *Schema) Table(name string) *Table {
	return s.tables[strings.ToLower(name)]
}

// Tables returns all tables in creation order.
func (s *Schema) Tables() []*Table {
	out := make([]*Table, 0, len(s.order))
	for _, k := range s.order {
		out = append(out, s.tables[k])
	}
	return out
}

// SetStats installs statistics for a table.
func (s *Schema) SetStats(table string, st *TableStats) {
	s.stats[strings.ToLower(table)] = st
}

// Stats returns the statistics for a table; when none have been collected
// it returns a default estimate (the planner's "no ANALYZE yet" path).
func (s *Schema) Stats(table string) *TableStats {
	if st, ok := s.stats[strings.ToLower(table)]; ok {
		return st
	}
	return &TableStats{RowCount: defaultRowEstimate, Columns: map[string]*ColumnStats{}}
}

// HasStats reports whether real statistics exist for the table.
func (s *Schema) HasStats(table string) bool {
	_, ok := s.stats[strings.ToLower(table)]
	return ok
}

// defaultRowEstimate is the planner's assumption for un-analyzed tables,
// mirroring real engines' behaviour of assuming a small constant.
const defaultRowEstimate = 1000

// TableStats carries per-table statistics.
type TableStats struct {
	RowCount int
	Columns  map[string]*ColumnStats
}

// ColumnStats carries per-column statistics.
type ColumnStats struct {
	Distinct  int
	NullCount int
	Min, Max  datum.D
	Histogram *Histogram
}

// Column returns statistics for a column, or nil.
func (ts *TableStats) Column(name string) *ColumnStats {
	if ts == nil || ts.Columns == nil {
		return nil
	}
	return ts.Columns[strings.ToLower(name)]
}

// Histogram is an equi-depth histogram over a column's non-null values.
type Histogram struct {
	// Bounds are bucket upper bounds (inclusive), sorted ascending; each
	// bucket holds roughly Total/len(Bounds) values.
	Bounds []datum.D
	Total  int
}

// BuildHistogram constructs an equi-depth histogram with at most buckets
// buckets from a sample of values (nulls excluded by the caller).
func BuildHistogram(values []datum.D, buckets int) *Histogram {
	if len(values) == 0 || buckets <= 0 {
		return &Histogram{}
	}
	sorted := append([]datum.D(nil), values...)
	sort.Slice(sorted, func(i, j int) bool {
		return datum.SortCompare(sorted[i], sorted[j]) < 0
	})
	if buckets > len(sorted) {
		buckets = len(sorted)
	}
	h := &Histogram{Total: len(sorted), Bounds: make([]datum.D, 0, buckets)}
	for b := 1; b <= buckets; b++ {
		idx := b*len(sorted)/buckets - 1
		h.Bounds = append(h.Bounds, sorted[idx])
	}
	return h
}

// SelectivityLT estimates the fraction of values strictly less than v.
func (h *Histogram) SelectivityLT(v datum.D) float64 {
	if h == nil || len(h.Bounds) == 0 {
		return defaultIneqSelectivity
	}
	n := sort.Search(len(h.Bounds), func(i int) bool {
		return datum.SortCompare(h.Bounds[i], v) >= 0
	})
	return float64(n) / float64(len(h.Bounds))
}

// SelectivityEQ estimates the fraction of values equal to v given the
// distinct count.
func (cs *ColumnStats) SelectivityEQ() float64 {
	if cs == nil || cs.Distinct <= 0 {
		return defaultEqSelectivity
	}
	return 1.0 / float64(cs.Distinct)
}

// Default selectivities used when statistics are missing; the constants
// follow the classic System R conventions.
const (
	defaultEqSelectivity   = 0.005
	defaultIneqSelectivity = 1.0 / 3.0
)

// DefaultEqSelectivity exposes the equality fallback for the planner.
func DefaultEqSelectivity() float64 { return defaultEqSelectivity }

// DefaultIneqSelectivity exposes the inequality fallback for the planner.
func DefaultIneqSelectivity() float64 { return defaultIneqSelectivity }

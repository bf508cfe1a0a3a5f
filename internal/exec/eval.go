// Package exec implements the volcano-style (materialized) executor the
// simulated engines share: expression evaluation with SQL three-valued
// logic, the physical operators produced by the planner, correlated
// subquery execution, and per-operator runtime statistics that power
// EXPLAIN ANALYZE and the paper's q11 timing experiment.
package exec

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"uplan/internal/datum"
	"uplan/internal/planner"
	"uplan/internal/sql"
)

// ErrUnresolvedColumn reports a column reference that no scope could bind.
// Callers that generate queries against a guessed schema (the TLP oracle,
// fuzzing campaigns) match it with errors.Is to separate "the generator
// named a column this table lacks" from genuine execution failures.
var ErrUnresolvedColumn = errors.New("unresolved column")

// scope is one level of column bindings; parent links implement correlated
// subquery resolution. An operator builds one scope per call and moves it
// from row to row, so its column cache lives as long as the operator call.
type scope struct {
	schema  []planner.OutCol
	row     []datum.D
	parent  *scope
	touched *bool // set when resolution escapes to the parent scope
	// cols caches column references already resolved against schema;
	// ord -1 records a reference that schema does not hold.
	cols []resolvedCol
}

type resolvedCol struct {
	ref *sql.ColumnRef
	ord int
}

// column resolves a column reference, against this scope's schema by
// ordinal once per reference and per scope, and otherwise through the
// parent scopes.
//
//uplan:hotpath
func (s *scope) column(ref *sql.ColumnRef) (datum.D, bool) {
	if s == nil {
		return datum.Null(), false
	}
	ord := -2
	for _, c := range s.cols {
		if c.ref == ref {
			ord = c.ord
			break
		}
	}
	if ord == -2 {
		ord = planner.FindColumn(s.schema, ref.Table, ref.Name)
		s.cols = append(s.cols, resolvedCol{ref, ord})
	}
	if ord >= 0 {
		return s.row[ord], true
	}
	return s.parent.lookupFrom(s, ref.Table, ref.Name)
}

// lookupFrom resolves a column in s and its ancestors on behalf of the
// scope from, which has already missed. A hit beyond a subquery boundary
// marks that subquery as correlated.
func (s *scope) lookupFrom(from *scope, table, name string) (datum.D, bool) {
	var crossed []*bool
	for sc := s; sc != nil; sc = sc.parent {
		if sc != from && sc.touched != nil {
			// We are about to search a subquery boundary scope (or beyond):
			// a hit from here on means the subquery is correlated.
			crossed = append(crossed, sc.touched)
		}
		if i := planner.FindColumn(sc.schema, table, name); i >= 0 {
			for _, m := range crossed {
				*m = true
			}
			return sc.row[i], true
		}
	}
	return datum.Null(), false
}

func (s *scope) lookupExpr(e sql.Expr) (datum.D, bool) {
	var crossed []*bool
	for sc := s; sc != nil; sc = sc.parent {
		if sc != s && sc.touched != nil {
			crossed = append(crossed, sc.touched)
		}
		if i := planner.FindExprColumn(sc.schema, e); i >= 0 {
			for _, m := range crossed {
				*m = true
			}
			return sc.row[i], true
		}
	}
	return datum.Null(), false
}

// eval evaluates an expression in a scope.
func (ex *Executor) eval(e sql.Expr, sc *scope) (datum.D, error) {
	switch t := e.(type) {
	case *sql.Literal:
		return t.Val, nil
	case *sql.ColumnRef:
		if v, ok := sc.column(t); ok {
			return v, nil
		}
		return datum.Null(), fmt.Errorf("exec: %w %s", ErrUnresolvedColumn, t.SQL())
	case *sql.Binary:
		return ex.evalBinary(t, sc)
	case *sql.Unary:
		x, err := ex.eval(t.X, sc)
		if err != nil {
			return datum.Null(), err
		}
		if t.Op == "NOT" {
			tr := datum.TruthOf(x)
			if ex.Quirks.NotIgnoresNull && tr == datum.Unknown {
				return datum.Bool(true), nil // injected defect
			}
			return tr.Not().D(), nil
		}
		// Arithmetic negation.
		switch x.K {
		case datum.KNull:
			return datum.Null(), nil
		case datum.KInt:
			return datum.Int(-x.I), nil
		case datum.KFloat:
			return datum.Float(-x.F), nil
		}
		return datum.Null(), fmt.Errorf("exec: cannot negate %v", x.K)
	case *sql.IsNull:
		x, err := ex.eval(t.X, sc)
		if err != nil {
			return datum.Null(), err
		}
		if t.Neg {
			return datum.Bool(!x.IsNull()), nil
		}
		return datum.Bool(x.IsNull()), nil
	case *sql.InList:
		return ex.evalInList(t, sc)
	case *sql.InSubquery:
		return ex.evalInSubquery(t, sc)
	case *sql.Exists:
		rows, err := ex.runSubquery(t.Sub, sc)
		if err != nil {
			return datum.Null(), err
		}
		has := len(rows) > 0
		if t.Neg {
			has = !has
		}
		return datum.Bool(has), nil
	case *sql.Between:
		x, err := ex.eval(t.X, sc)
		if err != nil {
			return datum.Null(), err
		}
		lo, err := ex.eval(t.Lo, sc)
		if err != nil {
			return datum.Null(), err
		}
		hi, err := ex.eval(t.Hi, sc)
		if err != nil {
			return datum.Null(), err
		}
		geLo := compareTruth(x, lo, sql.OpGe)
		leHi := compareTruth(x, hi, sql.OpLe)
		res := geLo.And(leHi)
		if t.Neg {
			res = res.Not()
		}
		return res.D(), nil
	case *sql.Like:
		x, err := ex.eval(t.X, sc)
		if err != nil {
			return datum.Null(), err
		}
		pat, err := ex.eval(t.Pattern, sc)
		if err != nil {
			return datum.Null(), err
		}
		if x.IsNull() || pat.IsNull() {
			return datum.Null(), nil
		}
		m := likeMatch(toStr(x), toStr(pat))
		if t.Neg {
			m = !m
		}
		return datum.Bool(m), nil
	case *sql.Case:
		return ex.evalCase(t, sc)
	case *sql.FuncCall:
		if t.IsAggregate() {
			// Aggregate references outside the aggregation operator resolve
			// to the agg output column (HAVING/ORDER BY path).
			if v, ok := sc.lookupExpr(t); ok {
				return v, nil
			}
			return datum.Null(), fmt.Errorf("exec: aggregate %s outside aggregation context", t.SQL())
		}
		return ex.evalScalarFunc(t, sc)
	case *sql.ScalarSubquery:
		rows, err := ex.runSubquery(t.Sub, sc)
		if err != nil {
			return datum.Null(), err
		}
		if len(rows) == 0 {
			return datum.Null(), nil
		}
		if len(rows) > 1 {
			return datum.Null(), fmt.Errorf("exec: scalar subquery returned %d rows", len(rows))
		}
		if len(rows[0]) != 1 {
			return datum.Null(), fmt.Errorf("exec: scalar subquery returned %d columns", len(rows[0]))
		}
		return rows[0][0], nil
	case *sql.Star:
		return datum.Null(), fmt.Errorf("exec: * is not a scalar expression")
	}
	return datum.Null(), fmt.Errorf("exec: unsupported expression %T", e)
}

func (ex *Executor) evalBinary(b *sql.Binary, sc *scope) (datum.D, error) {
	switch b.Op {
	case sql.OpAnd, sql.OpOr:
		l, err := ex.eval(b.L, sc)
		if err != nil {
			return datum.Null(), err
		}
		r, err := ex.eval(b.R, sc)
		if err != nil {
			return datum.Null(), err
		}
		lt, rt := datum.TruthOf(l), datum.TruthOf(r)
		if b.Op == sql.OpAnd {
			return lt.And(rt).D(), nil
		}
		return lt.Or(rt).D(), nil
	}
	l, err := ex.eval(b.L, sc)
	if err != nil {
		return datum.Null(), err
	}
	r, err := ex.eval(b.R, sc)
	if err != nil {
		return datum.Null(), err
	}
	switch b.Op {
	case sql.OpEq, sql.OpNe, sql.OpLt, sql.OpLe, sql.OpGt, sql.OpGe:
		return compareTruth(l, r, b.Op).D(), nil
	case sql.OpAdd, sql.OpSub, sql.OpMul, sql.OpDiv, sql.OpMod:
		return arith(l, r, b.Op)
	case sql.OpCat:
		if l.IsNull() || r.IsNull() {
			return datum.Null(), nil
		}
		return datum.Str(toStr(l) + toStr(r)), nil
	}
	return datum.Null(), fmt.Errorf("exec: unsupported operator %q", b.Op)
}

func compareTruth(l, r datum.D, op sql.BinaryOp) datum.Truth {
	c, ok := datum.Compare(l, r)
	if !ok {
		return datum.Unknown
	}
	var res bool
	switch op {
	case sql.OpEq:
		res = c == 0
	case sql.OpNe:
		res = c != 0
	case sql.OpLt:
		res = c < 0
	case sql.OpLe:
		res = c <= 0
	case sql.OpGt:
		res = c > 0
	case sql.OpGe:
		res = c >= 0
	}
	if res {
		return datum.True
	}
	return datum.False
}

func arith(l, r datum.D, op sql.BinaryOp) (datum.D, error) {
	if l.IsNull() || r.IsNull() {
		return datum.Null(), nil
	}
	if l.K == datum.KInt && r.K == datum.KInt {
		switch op {
		case sql.OpAdd:
			return datum.Int(l.I + r.I), nil
		case sql.OpSub:
			return datum.Int(l.I - r.I), nil
		case sql.OpMul:
			return datum.Int(l.I * r.I), nil
		case sql.OpDiv:
			if r.I == 0 {
				return datum.Null(), nil
			}
			return datum.Int(l.I / r.I), nil
		case sql.OpMod:
			if r.I == 0 {
				return datum.Null(), nil
			}
			return datum.Int(l.I % r.I), nil
		}
	}
	lf, lok := l.AsFloat()
	rf, rok := r.AsFloat()
	if !lok || !rok {
		return datum.Null(), fmt.Errorf("exec: non-numeric operands for %q", op)
	}
	switch op {
	case sql.OpAdd:
		return datum.Float(lf + rf), nil
	case sql.OpSub:
		return datum.Float(lf - rf), nil
	case sql.OpMul:
		return datum.Float(lf * rf), nil
	case sql.OpDiv:
		if rf == 0 {
			return datum.Null(), nil
		}
		return datum.Float(lf / rf), nil
	case sql.OpMod:
		if rf == 0 {
			return datum.Null(), nil
		}
		return datum.Float(math.Mod(lf, rf)), nil
	}
	return datum.Null(), fmt.Errorf("exec: unsupported arithmetic %q", op)
}

func (ex *Executor) evalInList(t *sql.InList, sc *scope) (datum.D, error) {
	x, err := ex.eval(t.X, sc)
	if err != nil {
		return datum.Null(), err
	}
	res := datum.False
	for _, item := range t.List {
		v, err := ex.eval(item, sc)
		if err != nil {
			return datum.Null(), err
		}
		res = res.Or(compareTruth(x, v, sql.OpEq))
	}
	if t.Neg {
		res = res.Not()
	}
	return res.D(), nil
}

func (ex *Executor) evalInSubquery(t *sql.InSubquery, sc *scope) (datum.D, error) {
	x, err := ex.eval(t.X, sc)
	if err != nil {
		return datum.Null(), err
	}
	rows, err := ex.runSubquery(t.Sub, sc)
	if err != nil {
		return datum.Null(), err
	}
	res := datum.False
	for _, row := range rows {
		if len(row) != 1 {
			return datum.Null(), fmt.Errorf("exec: IN subquery must return one column")
		}
		res = res.Or(compareTruth(x, row[0], sql.OpEq))
	}
	if t.Neg {
		res = res.Not()
	}
	return res.D(), nil
}

func (ex *Executor) evalCase(c *sql.Case, sc *scope) (datum.D, error) {
	for _, w := range c.Whens {
		var match datum.Truth
		if c.Operand != nil {
			op, err := ex.eval(c.Operand, sc)
			if err != nil {
				return datum.Null(), err
			}
			v, err := ex.eval(w.Cond, sc)
			if err != nil {
				return datum.Null(), err
			}
			match = compareTruth(op, v, sql.OpEq)
		} else {
			v, err := ex.eval(w.Cond, sc)
			if err != nil {
				return datum.Null(), err
			}
			match = datum.TruthOf(v)
		}
		if match == datum.True {
			return ex.eval(w.Then, sc)
		}
	}
	if c.Else != nil {
		return ex.eval(c.Else, sc)
	}
	return datum.Null(), nil
}

func (ex *Executor) evalScalarFunc(f *sql.FuncCall, sc *scope) (datum.D, error) {
	args := make([]datum.D, len(f.Args))
	for i, a := range f.Args {
		v, err := ex.eval(a, sc)
		if err != nil {
			return datum.Null(), err
		}
		args[i] = v
	}
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("exec: %s expects %d arguments, got %d", f.Name, n, len(args))
		}
		return nil
	}
	switch f.Name {
	case "ABS":
		if err := need(1); err != nil {
			return datum.Null(), err
		}
		switch args[0].K {
		case datum.KNull:
			return datum.Null(), nil
		case datum.KInt:
			if args[0].I < 0 {
				return datum.Int(-args[0].I), nil
			}
			return args[0], nil
		case datum.KFloat:
			return datum.Float(math.Abs(args[0].F)), nil
		}
		return datum.Null(), fmt.Errorf("exec: ABS of non-numeric")
	case "LENGTH":
		if err := need(1); err != nil {
			return datum.Null(), err
		}
		if args[0].IsNull() {
			return datum.Null(), nil
		}
		return datum.Int(int64(len(toStr(args[0])))), nil
	case "UPPER":
		if err := need(1); err != nil {
			return datum.Null(), err
		}
		if args[0].IsNull() {
			return datum.Null(), nil
		}
		return datum.Str(strings.ToUpper(toStr(args[0]))), nil
	case "LOWER":
		if err := need(1); err != nil {
			return datum.Null(), err
		}
		if args[0].IsNull() {
			return datum.Null(), nil
		}
		return datum.Str(strings.ToLower(toStr(args[0]))), nil
	case "SUBSTR", "SUBSTRING":
		if len(args) < 2 || len(args) > 3 {
			return datum.Null(), fmt.Errorf("exec: SUBSTR expects 2 or 3 arguments")
		}
		if args[0].IsNull() || args[1].IsNull() {
			return datum.Null(), nil
		}
		s := toStr(args[0])
		start := int(args[1].I) - 1
		if start < 0 {
			start = 0
		}
		if start > len(s) {
			start = len(s)
		}
		end := len(s)
		if len(args) == 3 && !args[2].IsNull() {
			end = start + int(args[2].I)
			if end > len(s) {
				end = len(s)
			}
			if end < start {
				end = start
			}
		}
		return datum.Str(s[start:end]), nil
	case "COALESCE":
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return datum.Null(), nil
	case "NULLIF":
		if err := need(2); err != nil {
			return datum.Null(), err
		}
		if eq, ok := datum.Equal(args[0], args[1]); ok && eq {
			return datum.Null(), nil
		}
		return args[0], nil
	case "GREATEST":
		return extremum(args, 1), nil
	case "LEAST":
		return extremum(args, -1), nil
	case "ROUND":
		if len(args) == 0 || args[0].IsNull() {
			return datum.Null(), nil
		}
		v, ok := args[0].AsFloat()
		if !ok {
			return datum.Null(), fmt.Errorf("exec: ROUND argument %s is not numeric", args[0])
		}
		digits := 0.0
		if len(args) == 2 && !args[1].IsNull() {
			// Silently treating a bad digits argument as 0 rounds to the
			// wrong precision and hides the defect from the oracles.
			if digits, ok = args[1].AsFloat(); !ok {
				return datum.Null(), fmt.Errorf("exec: ROUND digits argument %s is not numeric", args[1])
			}
		}
		scale := math.Pow(10, digits)
		return datum.Float(math.Round(v*scale) / scale), nil
	}
	return datum.Null(), fmt.Errorf("exec: unknown function %s", f.Name)
}

// extremum returns the max (dir=1) or min (dir=-1) of the arguments; NULL
// if any argument is NULL (standard GREATEST/LEAST semantics).
func extremum(args []datum.D, dir int) datum.D {
	if len(args) == 0 {
		return datum.Null()
	}
	best := args[0]
	if best.IsNull() {
		return datum.Null()
	}
	for _, a := range args[1:] {
		if a.IsNull() {
			return datum.Null()
		}
		if c, ok := datum.Compare(a, best); ok && c*dir > 0 {
			best = a
		}
	}
	return best
}

func toStr(d datum.D) string {
	if d.K == datum.KString {
		return d.S
	}
	s := d.String()
	return strings.Trim(s, "'")
}

// likeMatch implements SQL LIKE with % (any run) and _ (any single byte)
// over bytes. It scans both strings once, and on a mismatch backtracks to
// the most recent %, letting it absorb one more byte; earlier %s never
// need revisiting, because the latest one can absorb anything they could.
//
//uplan:hotpath
func likeMatch(s, pattern string) bool {
	si, pi := 0, 0
	star, mark := -1, 0 // last % seen in pattern, and the s position it resumes from
	for si < len(s) {
		switch {
		case pi < len(pattern) && pattern[pi] == '%':
			star, mark = pi, si
			pi++
		case pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]):
			si++
			pi++
		case star >= 0:
			mark++
			si, pi = mark, star+1
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}

// EvalTruth evaluates a predicate to a 3VL truth value.
func (ex *Executor) EvalTruth(e sql.Expr, sc *scope) (datum.Truth, error) {
	if e == nil {
		return datum.True, nil
	}
	v, err := ex.eval(e, sc)
	if err != nil {
		return datum.False, err
	}
	return datum.TruthOf(v), nil
}

package bounds

import (
	"errors"
	"fmt"

	"uplan/internal/cert"
	"uplan/internal/dbms"
	"uplan/internal/oracle"
	"uplan/internal/sql"
)

// ErrNoBound marks queries without a provable bound: shapes outside the
// SPJU fragment the parser or Bound understands, tables missing from
// the catalog, or tables without collected statistics. These are
// skip-worthy, like cert.ErrUnplannable — the oracle only reasons about
// queries it can bound.
var ErrNoBound = errors.New("bounds: no provable output-size bound")

// Slack is the absolute allowance on top of the relative cert.Tolerance.
// Planners floor estimates at one row (the minRows clamp), so an honest
// engine can report 1 where the provable bound is 0; an absolute unit of
// slack keeps that from flagging.
const Slack = 1.0

// Violation is one bounds finding: the engine's estimate exceeds the
// provable output-size bound.
type Violation struct {
	Engine string
	Query  string
	Bound  float64
	Est    float64
}

func (v Violation) String() string {
	return fmt.Sprintf("[%s] est(%q)=%.1f exceeds the provable SPJU bound %.1f",
		v.Engine, v.Query, v.Est, v.Bound)
}

// Checker runs the bounds oracle against one engine: parse the query,
// derive the static bound from the engine's own catalog, read the
// engine's surfaced estimate through CERT's ErrNoEstimate-aware plan
// conversion, and compare.
type Checker struct {
	Engine *dbms.Engine
	est    *cert.Checker
	// Checked counts performed bound/estimate comparisons.
	Checked int
	// Skipped counts queries without a provable bound or a readable
	// estimate.
	Skipped int
}

// New creates a bounds checker for the engine.
func New(e *dbms.Engine) (*Checker, error) {
	est, err := cert.New(e)
	if err != nil {
		return nil, err
	}
	return &Checker{Engine: e, est: est}, nil
}

// SetDecoder replaces the underlying estimate reader's plan decoder; the
// orchestrator uses it to share the task-owned decoder it already built.
func (c *Checker) SetDecoder(dec *oracle.Decoder) { c.est.SetDecoder(dec) }

// Check compares the engine's estimate for the query against the
// provable bound. It returns a Violation when the estimate exceeds the
// bound beyond tolerance; an error matching ErrNoBound when the query
// cannot be bounded, cert.ErrUnplannable when the engine cannot plan
// it, and cert.ErrNoEstimate when the plan exposes no estimate.
func (c *Checker) Check(query string) (*Violation, error) {
	stmt, err := sql.ParseSelect(query)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNoBound, err)
	}
	bound, ok := Bound(stmt, c.Engine.DB.Schema)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoBound, query)
	}
	est, err := c.est.EstimateStmt(query, stmt)
	if err != nil {
		return nil, err
	}
	c.Checked++
	if est > bound*cert.Tolerance+Slack {
		return &Violation{Engine: c.Engine.Info.Name, Query: query, Bound: bound, Est: est}, nil
	}
	return nil, nil
}

// Package qpg implements Query Plan Guidance (Ba & Rigger, ICSE 2023) in a
// DBMS-agnostic way on top of the unified query plan representation —
// application A.1 of the paper. QPG generates random queries, observes
// their *unified* plans, and mutates the database whenever no structurally
// new plan has been seen for a while, steering generation toward
// unexplored optimizer behaviour. Because plans are unified, one
// implementation covers every engine with a converter — the paper's
// headline engineering win.
package qpg

import (
	"errors"
	"fmt"

	"uplan/internal/core"
	"uplan/internal/dbms"
	"uplan/internal/exec"
	"uplan/internal/oracle"
	"uplan/internal/sql"
	"uplan/internal/sqlancer"
	"uplan/internal/tlp"
)

// BugKind classifies campaign findings.
type BugKind string

// Finding kinds.
const (
	KindLogic BugKind = "logic"      // wrong results (TLP or differential)
	KindCrash BugKind = "crash"      // execution error on generated input
	KindPlan  BugKind = "plan-parse" // converter failed on the engine's plan
)

// Finding is one campaign discovery.
type Finding struct {
	Engine string
	Kind   BugKind
	Query  string
	Detail string
}

func (f Finding) String() string {
	return fmt.Sprintf("[%s/%s] %s — %s", f.Engine, f.Kind, f.Query, f.Detail)
}

// Options tune a campaign.
type Options struct {
	// Queries is the number of generated queries (the time budget).
	Queries int
	// StallThreshold is how many queries without a new plan fingerprint
	// trigger a database mutation (the paper's "specific number of randomly
	// generated queries").
	StallThreshold int
	// Seed drives the generator.
	Seed int64
	// MaxFindings stops the campaign early.
	MaxFindings int
}

// DefaultOptions returns the defaults used by the Table V reproduction.
func DefaultOptions() Options {
	return Options{Queries: 400, StallThreshold: 8, Seed: 1, MaxFindings: 10}
}

// Campaign runs QPG against one engine, with a pristine reference engine
// of the same dialect used for differential checking.
type Campaign struct {
	Engine    *dbms.Engine
	Reference *dbms.Engine
	Gen       *sqlancer.Generator
	Plans     *core.FingerprintSet
	Findings  []Finding
	// NewPlans counts distinct plan fingerprints observed.
	NewPlans int
	// QueriesRun counts generated queries actually processed by Run —
	// less than the budget when MaxFindings stops the campaign early.
	QueriesRun int
	// PlansObserved counts queries whose unified plan was successfully
	// obtained and fingerprinted (the NewPlans denominator).
	PlansObserved int
	// Mutations counts applied database mutations.
	Mutations int
	// Observer, when set, receives every successfully converted plan
	// before the campaign fingerprints it. The campaign orchestrator uses
	// it to feed a cross-engine plan store. Plans built on the campaign's
	// reused arena are only valid for the duration of the call — an
	// observer that needs to keep one must Clone it.
	Observer func(*core.Plan)
	// Tick, when set, is consulted before each query with the number of
	// queries run so far; returning false stops the campaign early. The
	// orchestrator uses it for cooperative cancellation, so a long task
	// yields mid-run instead of only between tasks.
	Tick func(queriesRun int) bool

	// dec implements the allocation-lean observation loop: when the
	// dialect's converter supports arenas, every plan is decoded into one
	// campaign-owned arena that is reset before the next query, so a
	// warmed-up campaign observes plans with no slab allocations. The
	// orchestrator shares its per-task decoder via SetDecoder.
	dec *oracle.Decoder
}

// New creates a campaign for the given engine dialect. The reference
// engine is created fresh with no injected defects.
func New(target *dbms.Engine, opts Options) (*Campaign, error) {
	ref, err := dbms.New(target.Info.Name)
	if err != nil {
		return nil, err
	}
	// The campaign converts one plan per generated query; the shared
	// cached converter (streaming JSON decoder, lock-free registry
	// snapshot) behind the decoder keeps that loop allocation-lean.
	dec, err := oracle.NewDecoder(target.Info.Name)
	if err != nil {
		return nil, err
	}
	c := &Campaign{
		Engine:    target,
		Reference: ref,
		Gen:       sqlancer.New(opts.Seed),
		// Structural fingerprints: operations plus configuration property
		// names, but not values — predicate constants and identifiers are
		// exactly the unstable information QPG must ignore, and excluding
		// them lets coverage plateau so the mutation feedback loop engages.
		// The set dedups on binary SHA-256 keys; Observe on an
		// already-seen plan (the common case once coverage plateaus) does
		// not allocate.
		Plans: core.NewFingerprintSet(core.FingerprintOptions{
			IncludeConfiguration: true,
		}),
		dec: dec,
	}
	return c, nil
}

// SetDecoder replaces the campaign's plan decoder. The orchestrator uses
// it to share the task-owned decoder it already built for the engine's
// dialect instead of carrying two arenas per task.
func (c *Campaign) SetDecoder(dec *oracle.Decoder) {
	if dec != nil {
		c.dec = dec
	}
}

// Setup creates the random schema on both engines.
func (c *Campaign) Setup(tables, rows int) error {
	for _, stmt := range c.Gen.SchemaSQL(tables, rows) {
		if err := c.applyBoth(stmt); err != nil {
			return err
		}
	}
	if err := c.Engine.Analyze(); err != nil {
		return err
	}
	return c.Reference.Analyze()
}

// applyBoth runs a mutating statement on target and reference.
func (c *Campaign) applyBoth(stmt string) error {
	if _, err := c.Engine.Execute(stmt); err != nil {
		return fmt.Errorf("qpg: target %q: %w", stmt, err)
	}
	if _, err := c.Reference.Execute(stmt); err != nil {
		return fmt.Errorf("qpg: reference %q: %w", stmt, err)
	}
	return nil
}

// Run executes the campaign loop.
func (c *Campaign) Run(opts Options) []Finding {
	stall := 0
	for i := 0; i < opts.Queries; i++ {
		if opts.MaxFindings > 0 && len(c.Findings) >= opts.MaxFindings {
			break
		}
		if c.Tick != nil && !c.Tick(c.QueriesRun) {
			break
		}
		q := parse(c.Gen.Query())
		c.QueriesRun++
		// 1. Plan guidance: observe the unified plan of the query.
		fresh, ok := c.observePlan(q)
		if ok {
			c.PlansObserved++
		}
		if ok && fresh {
			c.NewPlans++
			stall = 0
		} else {
			stall++
		}
		// 2. Oracles.
		c.differential(q)
		table, pred := c.Gen.PartitionableQuery()
		c.checkTLP(table, pred)
		// 3. Mutate the database when plan coverage stalls.
		if stall >= opts.StallThreshold {
			stall = 0
			c.mutate()
		}
	}
	return c.Findings
}

// query is a generated query text parsed once for every engine call made
// with it: the target's EXPLAIN and both engines' executions.
type query struct {
	text string
	stmt sql.Statement // nil when text does not parse
}

func parse(text string) query {
	// A parse error needs no handling here: with stmt nil, the string
	// entry points fail on the text with that same error and count the
	// statement, as they do for any caller.
	stmt, _ := sql.Parse(text)
	return query{text: text, stmt: stmt}
}

func (q query) explain(e *dbms.Engine) (string, error) {
	if q.stmt == nil {
		return e.Explain(q.text, e.DefaultFormat())
	}
	return e.ExplainStmt(q.stmt, e.DefaultFormat())
}

func (q query) execute(e *dbms.Engine) (*exec.Result, error) {
	if q.stmt == nil {
		return e.Execute(q.text)
	}
	return e.ExecuteStmt(q.stmt)
}

// observePlan converts the engine's serialized plan to the unified
// representation and records its fingerprint. The second result is false
// when the plan could not be obtained.
func (c *Campaign) observePlan(q query) (fresh, ok bool) {
	query := q.text
	serialized, err := q.explain(c.Engine)
	if err != nil {
		c.report(KindCrash, query, "EXPLAIN failed: "+err.Error())
		return false, false
	}
	// Arena-backed decode path: the plan lives in the campaign's reused
	// arena until the next observation resets it; the fingerprint set and
	// the observer only read it.
	plan, err := c.dec.Decode(serialized)
	if err != nil {
		c.report(KindPlan, query, err.Error())
		return false, false
	}
	if c.Observer != nil {
		c.Observer(plan)
	}
	return c.Plans.Observe(plan), true
}

func (c *Campaign) checkDifferential(query string) { c.differential(parse(query)) }

// differential runs the query on target and reference and reports any
// asymmetric failure or result difference.
func (c *Campaign) differential(q query) {
	query := q.text
	got, err1 := q.execute(c.Engine)
	want, err2 := q.execute(c.Reference)
	switch {
	case err1 != nil && err2 == nil:
		c.report(KindCrash, query, err1.Error())
	case err1 == nil && err2 != nil:
		// The reference rejects a query the target accepts: just as
		// asymmetric as the inverse case, and exactly the class of signal
		// the differential oracle exists to surface.
		c.report(KindCrash, query, "reference failed where target succeeded: "+err2.Error())
	case err1 == nil && err2 == nil:
		if diff := tlp.CompareResults(got, want); diff != "" {
			c.report(KindLogic, query, "differs from reference: "+diff)
		}
	}
}

func (c *Campaign) checkTLP(table, pred string) {
	v, err := tlp.Check(c.Engine, table, pred)
	if err != nil {
		// The generator guesses predicates against its own schema model, so
		// a column the table lacks is expected noise, not a defect. Match
		// the executor's sentinel instead of its message text: messages
		// change, and unrelated errors may contain the same words.
		if !errors.Is(err, exec.ErrUnresolvedColumn) {
			c.report(KindCrash, "TLP "+table+" / "+pred, err.Error())
		}
		return
	}
	if v != nil {
		c.report(KindLogic, v.Base+" WHERE "+pred, v.Detail)
	}
}

// mutate applies one database mutation to both engines; QPG's coverage
// feedback loop. Occasionally an update-swap statement is used, which also
// serves as a differential probe for update-path bugs.
func (c *Campaign) mutate() {
	c.Mutations++
	stmt := c.Gen.Mutation()
	if c.Mutations%2 == 0 {
		stmt = c.Gen.UpdateWithSwap()
	}
	if err := c.applyBoth(stmt); err != nil {
		// Expected for e.g. unique violations; both engines stay in sync
		// only if both fail — verify by probing a cheap query.
		return
	}
	// Statistics refresh feeds the planner's estimates (the CERT-relevant
	// state): a failure here is oracle signal, not noise. An asymmetric
	// failure is exactly the class the differential oracle reports; a
	// symmetric one means neither engine has comparable post-mutation
	// state, so the divergence probe below would compare stale data.
	errT := c.Engine.Analyze()
	errR := c.Reference.Analyze()
	switch {
	case errT != nil && errR == nil:
		c.report(KindCrash, stmt, "ANALYZE after mutation failed on target: "+errT.Error())
		return
	case errT == nil && errR != nil:
		c.report(KindCrash, stmt, "reference ANALYZE failed where target succeeded: "+errR.Error())
		return
	case errT != nil && errR != nil:
		return
	}
	// After a mutation, update-path defects surface as data divergence.
	for _, t := range c.Gen.Tables {
		q := parse("SELECT * FROM " + t.Name)
		got, err1 := q.execute(c.Engine)
		want, err2 := q.execute(c.Reference)
		if err1 == nil && err2 == nil {
			if diff := tlp.CompareResults(got, want); diff != "" {
				c.report(KindLogic, stmt, "state divergence after mutation: "+diff)
			}
		}
	}
}

func (c *Campaign) report(kind BugKind, query, detail string) {
	// Deduplicate by kind+detail class to keep findings unique.
	for _, f := range c.Findings {
		if f.Kind == kind && f.Detail == detail {
			return
		}
	}
	c.Findings = append(c.Findings, Finding{
		Engine: c.Engine.Info.Name,
		Kind:   kind,
		Query:  query,
		Detail: detail,
	})
}

package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"uplan/internal/bounds"
	"uplan/internal/campaign"
	"uplan/internal/core"
	"uplan/internal/datum"
	"uplan/internal/dbms"
	"uplan/internal/exec"
	"uplan/internal/explain"
	"uplan/internal/oracle"
	"uplan/internal/planner"
	"uplan/internal/sql"
	"uplan/internal/sqlancer"
	"uplan/internal/store"
)

// replayQueries is the per-task query budget of the layer replay.
const replayQueries = 300

// campaignFingerprint is the fingerprint configuration the campaign's
// shared plan set uses.
var campaignFingerprint = core.FingerprintOptions{IncludeConfiguration: true}

// traceCampaign is the campaign workload's traced run, in three passes,
// each over all nine engines x four oracles on one worker:
//
//  1. an untraced campaign.Run, the baseline for the tracing overhead;
//  2. the oracle tasks, run through oracle.Lookup(name).Run with a
//     benchmark-built TaskContext whose hooks time plan observation,
//     journaling and the interval between queries;
//  3. the layer replay: each task's seeded query stream replayed through
//     the public functions its oracle's calls are made of, so the engine
//     side's time splits into sqlancer, sql, planner, exec, dbms shaping,
//     explain, convert, core, datum, bounds and store.
//
// Layer shares are taken over the replay's wall time.
func traceCampaign(cfg runConfig, r *result) error {
	base, err := untracedSingleWorker(cfg, r)
	if err != nil {
		return err
	}
	tasks, err := traceOracleTasks(cfg, r)
	if err != nil {
		return err
	}
	overhead := tasks.perQuery.Seconds()/base.Seconds() - 1
	r.set("trace.overhead_ratio", overhead)
	r.note("tracing overhead: %.1f us/query untraced vs %.1f us/query traced (one worker)",
		float64(base.Nanoseconds())/1e3, float64(tasks.perQuery.Nanoseconds())/1e3)

	rp, err := replayCampaign(cfg, r)
	if err != nil {
		return err
	}
	setShares(r, rp.report, rp.wall)
	return writeSpans(cfg, r, map[string]*tracer{"tasks": tasks.tr, "replay": rp.tr})
}

// untracedSingleWorker times one campaign.Run on a single worker and
// returns its wall time per query.
func untracedSingleWorker(cfg runConfig, r *result) (time.Duration, error) {
	dir, err := os.MkdirTemp(cfg.work, "store-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return 0, err
	}
	opts := campaignOptions(cfg.seed, campaignQueries, st)
	opts.Workers = 1
	rt0, t0 := readRuntime(), time.Now()
	res, err := campaign.Run(opts)
	wall, rt1 := time.Since(t0), readRuntime()
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, fmt.Errorf("untraced baseline campaign: %w", err)
	}
	gc, alloc := runtimeDelta(rt0, rt1, int64(res.Stats.Queries))
	r.set("runtime.gc_cpu_fraction", gc)
	r.set("runtime.alloc_bytes_per_op", alloc)
	return wall / time.Duration(res.Stats.Queries), nil
}

type taskPass struct {
	tr       *tracer
	perQuery time.Duration
}

// traceOracleTasks runs every task through the oracle registry with
// traced hooks and reports the oracle, campaign and store metrics.
func traceOracleTasks(cfg runConfig, r *result) (*taskPass, error) {
	dir, err := os.MkdirTemp(cfg.work, "store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	tr := newTracer()
	def := campaign.DefaultOptions()
	plans := core.NewFingerprintSet(campaignFingerprint)
	var observed, fresh int
	queries := 0
	taskMS := map[string]*dist{}
	useful := map[string][2]int{}
	start := time.Now()
	for ti, task := range campaignTasks() {
		eName, oName := task[0], task[1]
		root := tr.root("bench.task", int64(ti))
		e, err := dbms.New(eName)
		if err != nil {
			return nil, err
		}
		dec, err := oracle.NewDecoder(e.Info.Name)
		if err != nil {
			return nil, err
		}
		impl, ok := oracle.Lookup(oName)
		if !ok {
			return nil, fmt.Errorf("oracle %q is not registered", oName)
		}
		ts := root.child("oracle." + oName + ".task")
		seen := map[string]bool{}
		var lastTick int64 = -1
		tc := &oracle.TaskContext{
			Engine: e, Seed: oracle.DeriveSeed(cfg.seed, eName, oName),
			Queries: campaignQueries, StallThreshold: def.StallThreshold,
			Tables: def.Tables, Rows: def.Rows, MaxFindings: def.MaxFindings,
			Decoder: dec,
			Report: func(f oracle.Finding) bool {
				key := string(f.Kind) + "\x00" + f.Detail
				if seen[key] {
					return false
				}
				seen[key] = true
				sp := ts.child("store.append")
				_, err := st.AppendFinding(store.Finding{Engine: eName, Oracle: oName,
					Kind: string(f.Kind), Query: f.Query, Detail: f.Detail})
				sp.end()
				if err != nil {
					r.fail("journaling a finding: %v", err)
				}
				return true
			},
			ObservePlan: func(p *core.Plan) bool {
				sp := ts.child("campaign.observe")
				fp := tracedFingerprint(sp, p)
				isNew := plans.ObserveKey(fp)
				if isNew {
					ap := sp.child("store.append")
					_, err := st.AppendPlan(fp)
					ap.end()
					if err != nil {
						r.fail("journaling a plan: %v", err)
					}
				}
				sp.end()
				observed++
				if isNew {
					fresh++
				}
				return isNew
			},
			Tick: func(n int) bool {
				now := tr.now()
				if lastTick >= 0 {
					ts.nested("oracle."+oName+".query", lastTick, now)
				}
				if n > 0 && n%checkpointEvery == 0 {
					cp := ts.child("store.checkpoint")
					err := st.Checkpoint(store.TaskProgress{Engine: eName, Oracle: oName, Queries: n})
					cp.end()
					if err != nil {
						r.fail("checkpoint: %v", err)
					}
				}
				lastTick = now
				return true
			},
		}
		rep, err := impl.Run(tc)
		d := ts.end()
		if err != nil {
			r.fail("task %s/%s: %v", eName, oName, err)
			r.failed++
		}
		cp := root.child("store.checkpoint")
		err = st.Checkpoint(store.TaskProgress{Engine: eName, Oracle: oName, Done: true,
			Queries: rep.Queries, Statements: e.Queries(), PlanQueries: rep.PlanQueries,
			NewPlans: rep.NewPlans, DistinctPlans: rep.DistinctPlans, Mutations: rep.Mutations,
			Checks: rep.Checks, Skipped: rep.Skipped, Extra: rep.Extra})
		cp.end()
		if err != nil {
			r.fail("Done checkpoint: %v", err)
		}
		root.end()
		queries += rep.Queries
		r.attempted += int64(rep.Queries)
		if taskMS[oName] == nil {
			taskMS[oName] = &dist{}
		}
		taskMS[oName].add(float64(d) / 1e6)
		u := useful[oName]
		switch oName {
		case "qpg":
			u[0] += rep.NewPlans
			u[1] += rep.PlanQueries
		case "cert", "bounds":
			u[0] += rep.Checks
			u[1] += rep.Checks + rep.Skipped
		default:
			u[0] += rep.Queries - rep.Skipped
			u[1] += rep.Queries
		}
		useful[oName] = u
	}
	wall := time.Since(start)
	if err := st.Sync(); err != nil {
		return nil, err
	}
	rep := tr.analyze()
	for _, o := range campaign.AllOracles() {
		r.set("oracle."+o+".task_ms.p50", taskMS[o].p50())
		p50, tail := rep.durStats("oracle." + o + ".query")
		r.set("oracle."+o+".query_us.p50", p50)
		r.set("oracle."+o+".query_us.p99", tail)
		r.set("oracle."+o+".useful_ratio", ratio(useful[o][0], useful[o][1]))
	}
	setCall(r, rep, "campaign.observe_us", "campaign.observe", false)
	r.set("campaign.new_plan_ratio", ratio(fresh, observed))
	setCall(r, rep, "store.append_us", "store.append", false)
	p50, tail := rep.durStats("store.checkpoint")
	r.set("store.checkpoint_ms.p50", p50/1e3)
	r.set("store.checkpoint_ms.p99", tail/1e3)
	size, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}
	r.set("store.bytes_per_query", float64(size)/float64(queries))
	r.note("oracle tasks: %d queries in %s, store %d bytes", queries, wall.Round(time.Millisecond), size)
	return &taskPass{tr: tr, perQuery: wall / time.Duration(max(queries, 1))}, nil
}

func campaignTasks() [][2]string {
	var out [][2]string
	for _, e := range dbms.Names() {
		for _, o := range campaign.AllOracles() {
			out = append(out, [2]string{e, o})
		}
	}
	return out
}

func tracedFingerprint(parent open, p *core.Plan) [32]byte {
	sp := parent.child("core.fingerprint")
	fp := p.FingerprintBytes(campaignFingerprint)
	sp.end()
	return fp
}

type replayPass struct {
	tr     *tracer
	report *traceReport
	wall   time.Duration
}

// replayer replays one task's query stream through the layers.
type replayer struct {
	tr                 *tracer
	st                 *store.Store
	plans              *core.FingerprintSet
	rows, execs        int
	planBytes, serials int
	failed             int
}

// replayCampaign is pass 3: per task, the seeded query stream through
// the public functions each oracle's calls are made of.
func replayCampaign(cfg runConfig, r *result) (*replayPass, error) {
	dir, err := os.MkdirTemp(cfg.work, "store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	rp := &replayer{tr: newTracer(), st: st, plans: core.NewFingerprintSet(campaignFingerprint)}
	def := campaign.DefaultOptions()
	op := int64(0)
	start := time.Now()
	for _, task := range campaignTasks() {
		eName, oName := task[0], task[1]
		setup := rp.tr.root("bench.setup", op)
		gen := sqlancer.New(oracle.DeriveSeed(cfg.seed, eName, oName))
		e, err := dbms.New(eName)
		if err != nil {
			return nil, err
		}
		if err := oracle.ApplySchema(e, gen, def.Tables, def.Rows); err != nil {
			return nil, err
		}
		var ref *dbms.Engine
		if oName == "qpg" {
			ref = dbms.MustNew(eName)
			if err := oracle.ApplySchema(ref, sqlancer.New(oracle.DeriveSeed(cfg.seed, eName, oName)), def.Tables, def.Rows); err != nil {
				return nil, err
			}
		}
		dec, err := oracle.NewDecoder(eName)
		if err != nil {
			return nil, err
		}
		setup.end()
		for i := 1; i <= replayQueries; i++ {
			op++
			root := rp.tr.root("bench.query", op)
			rp.query(root, oName, gen, e, ref, dec)
			if i%checkpointEvery == 0 {
				cp := root.child("store.checkpoint")
				if err := st.Checkpoint(store.TaskProgress{Engine: eName, Oracle: oName, Queries: i}); err != nil {
					r.fail("replay checkpoint: %v", err)
				}
				cp.end()
			}
			root.end()
		}
	}
	wall := time.Since(start)
	r.attempted += op
	if rp.failed > 0 {
		r.fail("layer replay: %d decoded plans failed to convert", rp.failed)
		r.failed += int64(rp.failed)
	}
	rep := rp.tr.analyze()
	setCall(r, rep, "sqlancer.gen_us", "sqlancer.gen", false)
	setCall(r, rep, "sql.parse_us", "sql.parse", false)
	setCall(r, rep, "planner.plan_us", "planner.plan", false)
	setCall(r, rep, "exec.run_us", "exec.run", false)
	r.set("exec.rows_per_query", float64(rp.rows)/float64(max(rp.execs, 1)))
	setCall(r, rep, "datum.rowkey_us", "datum.rowkey", false)
	setCall(r, rep, "dbms.explain_us", "dbms.explain", false)
	setCall(r, rep, "dbms.execute_us", "dbms.execute", false)
	setCall(r, rep, "dbms.shape_us", "dbms.shape", true)
	setCall(r, rep, "explain.serialize_us", "explain.serialize", false)
	r.set("explain.bytes_per_plan", float64(rp.planBytes)/float64(max(rp.serials, 1)))
	setCall(r, rep, "bounds.bound_us", "bounds.bound", false)
	setCall(r, rep, "convert.decode_us", "convert.decode", false)
	setCall(r, rep, "core.fingerprint_us", "core.fingerprint", false)
	r.note("layer replay: %d queries (%d per task) in %s", op, replayQueries, wall.Round(time.Millisecond))
	return &replayPass{tr: rp.tr, report: rep, wall: wall}, nil
}

// query replays one query of the named oracle: the calls that oracle
// makes per query, each into the layer that does the work.
func (rp *replayer) query(root open, oName string, gen *sqlancer.Generator, e, ref *dbms.Engine, dec *oracle.Decoder) {
	g := root.child("sqlancer.gen")
	qs := oracleQueries(gen, oName)
	g.end()
	switch oName {
	case "qpg":
		q := qs[0]
		if text, ok := rp.explain(root, e, q); ok {
			if p, ok := rp.decode(root, dec, text); ok {
				ob := root.child("campaign.observe")
				fp := tracedFingerprint(ob, p)
				if rp.plans.ObserveKey(fp) {
					ap := ob.child("store.append")
					if _, err := rp.st.AppendPlan(fp); err != nil {
						rp.failed++
					}
					ap.end()
				}
				ob.end()
			}
		}
		got, want := rp.execute(root, e, q), rp.execute(root, ref, q)
		rp.rowKeys(root, got, want)
		rp.tlp(root, e, qs[1], qs[2])
	case "tlp":
		rp.tlp(root, e, qs[0], qs[1])
	case "cert":
		for _, q := range qs {
			if text, ok := rp.explain(root, e, q); ok {
				if p, ok := rp.decode(root, dec, text); ok {
					p.RootCardinality()
				}
			}
		}
	default:
		q := qs[0]
		ps := root.child("sql.parse")
		stmt, err := sql.ParseSelect(q)
		ps.end()
		if err != nil {
			return
		}
		bs := root.child("bounds.bound")
		_, ok := bounds.Bound(stmt, e.DB.Schema)
		bs.end()
		if !ok {
			return
		}
		if text, ok := rp.explain(root, e, q); ok {
			if p, ok := rp.decode(root, dec, text); ok {
				p.RootCardinality()
			}
		}
	}
}

// explain is Engine.Explain split into its layers. The shaper is
// reachable only through NativePlan, which parses and plans again; that
// repeated work is marked as a replay.repeat child, estimated as this
// query's own parse and plan time, so dbms.shape's self time is the
// shaping alone.
func (rp *replayer) explain(parent open, e *dbms.Engine, q string) (string, bool) {
	sp := parent.child("dbms.explain")
	defer sp.end()
	ps := sp.child("sql.parse")
	stmt, err := sql.Parse(q)
	dParse := ps.end()
	if err != nil {
		return "", false
	}
	pl := sp.child("planner.plan")
	_, err = planner.New(e.DB.Schema, e.Opts).Plan(stmt)
	dPlan := pl.end()
	if err != nil {
		return "", false
	}
	sh := sp.child("dbms.shape")
	native, err := e.NativePlan(q)
	dShape := sh.end()
	sh.nested("replay.repeat", sh.start, sh.start+int64(min(dParse+dPlan, dShape)))
	if err != nil {
		return "", false
	}
	se := sp.child("explain.serialize")
	text, err := explain.Serialize(native, e.DefaultFormat())
	se.end()
	if err != nil {
		return "", false
	}
	rp.planBytes += len(text)
	rp.serials++
	return text, true
}

func (rp *replayer) decode(parent open, dec *oracle.Decoder, text string) (*core.Plan, bool) {
	sp := parent.child("convert.decode")
	p, err := dec.Decode(text)
	sp.end()
	if err != nil {
		rp.failed++
		return nil, false
	}
	return p, true
}

// execute is Engine.Execute for a SELECT, split into its layers.
func (rp *replayer) execute(parent open, e *dbms.Engine, q string) *exec.Result {
	sp := parent.child("dbms.execute")
	defer sp.end()
	ps := sp.child("sql.parse")
	stmt, err := sql.Parse(q)
	ps.end()
	if err != nil {
		return nil
	}
	pl := sp.child("planner.plan")
	phys, err := planner.New(e.DB.Schema, e.Opts).Plan(stmt)
	pl.end()
	if err != nil {
		return nil
	}
	ex := sp.child("exec.run")
	ng := exec.New(e.DB)
	ng.Quirks = e.Quirks
	res, err := ng.Run(phys)
	ex.end()
	if err != nil {
		return nil
	}
	rp.rows += len(res.Rows)
	rp.execs++
	return res
}

// tlp is TLP's base query plus its three partitions, and the row keys of
// the two multisets it compares.
func (rp *replayer) tlp(parent open, e *dbms.Engine, table, pred string) {
	base := rp.execute(parent, e, "SELECT * FROM "+table)
	union := &exec.Result{}
	for _, q := range [...]string{
		"SELECT * FROM " + table + " WHERE " + pred,
		"SELECT * FROM " + table + " WHERE NOT (" + pred + ")",
		"SELECT * FROM " + table + " WHERE (" + pred + ") IS NULL",
	} {
		if res := rp.execute(parent, e, q); res != nil {
			union.Rows = append(union.Rows, res.Rows...)
		}
	}
	rp.rowKeys(parent, base, union)
}

// rowKeys builds the sorted row-key multisets the oracles compare.
func (rp *replayer) rowKeys(parent open, results ...*exec.Result) {
	sp := parent.child("datum.rowkey")
	for _, res := range results {
		if res == nil {
			continue
		}
		keys := make([]string, len(res.Rows))
		for i, row := range res.Rows {
			keys[i] = datum.RowKey(row)
		}
		sort.Strings(keys)
	}
	sp.end()
}

// setCall reports a call's p50 and tail latency in microseconds, from
// span durations or, with self, from self times.
func setCall(r *result, rep *traceReport, metric, span string, self bool) {
	p50, tail := rep.durStats(span)
	if self {
		p50, tail = rep.selfStats(span)
	}
	r.set(metric+".p50", p50)
	r.set(metric+".p99", tail)
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() {
			n += info.Size()
		}
		return nil
	})
	return n, err
}

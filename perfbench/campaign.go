package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"uplan/internal/campaign"
	"uplan/internal/dbms"
	"uplan/internal/oracle"
	"uplan/internal/sqlancer"
	"uplan/internal/store"
)

// The campaign workload's stated budget: every (engine, oracle) task
// generates up to campaignQueries queries, with a durable checkpoint
// every checkpointEvery of them, on the default 2-table x 12-row schema.
const (
	campaignQueries = 1000
	checkpointEvery = 50
	warmupQueries   = 100
)

func campaignOptions(seed int64, queries int, st *store.Store) campaign.Options {
	opts := campaign.DefaultOptions()
	opts.Seed = seed
	opts.Queries = queries
	opts.Workers = runtime.NumCPU()
	opts.Store = st
	opts.CheckpointEvery = checkpointEvery
	return opts
}

// queryStreamDigest hashes the generator stream every campaign task
// draws: the task's schema and, per query, the generator calls its oracle
// makes (mutations excluded). A change to query generation changes it.
func queryStreamDigest(seed int64) string {
	h := sha256.New()
	for _, e := range dbms.Names() {
		for _, o := range campaign.AllOracles() {
			gen := sqlancer.New(oracle.DeriveSeed(seed, e, o))
			def := campaign.DefaultOptions()
			for _, s := range gen.SchemaSQL(def.Tables, def.Rows) {
				h.Write([]byte(s))
			}
			for i := 0; i < campaignQueries; i++ {
				for _, q := range oracleQueries(gen, o) {
					h.Write([]byte(q))
					h.Write([]byte{0})
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// oracleQueries draws one query's worth of generator output the way the
// named oracle does.
func oracleQueries(gen *sqlancer.Generator, o string) []string {
	switch o {
	case "qpg":
		q := gen.Query()
		t, p := gen.PartitionableQuery()
		return []string{q, t, p}
	case "tlp":
		t, p := gen.PartitionableQuery()
		return []string{t, p}
	case "cert":
		b, r := gen.RestrictableQuery()
		return []string{b, r}
	default:
		return []string{gen.Query()}
	}
}

// campaignRun is one measured campaign.Run.
type campaignRun struct {
	res      *campaign.Result
	err      error
	wall     time.Duration
	cpu      time.Duration
	interval []float64 // ms between consecutive periodic checkpoints of a task
}

// runCampaignOnce runs one campaign into a fresh store directory and
// re-opens the store afterwards to check what it journaled.
func runCampaignOnce(work string, seed int64, queries int) (*campaignRun, error) {
	dir, err := os.MkdirTemp(work, "store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	type mark struct {
		at      time.Time
		queries int
	}
	var mu sync.Mutex
	marks := map[store.TaskKey][]mark{}
	opts := campaignOptions(seed, queries, st)
	opts.OnProgress = func(p store.TaskProgress) {
		if p.Done {
			return
		}
		now := time.Now()
		mu.Lock()
		marks[p.Key()] = append(marks[p.Key()], mark{now, p.Queries})
		mu.Unlock()
	}
	run := &campaignRun{}
	cpu0, t0 := cpuTime(), time.Now()
	run.res, run.err = campaign.Run(opts)
	run.wall, run.cpu = time.Since(t0), cpuTime()-cpu0
	if err := st.Close(); err != nil {
		return nil, fmt.Errorf("closing campaign store: %w", err)
	}
	if run.res == nil {
		return nil, run.err
	}
	for _, ms := range marks {
		for i := 1; i < len(ms); i++ {
			if ms[i].queries-ms[i-1].queries == checkpointEvery {
				run.interval = append(run.interval, float64(ms[i].at.Sub(ms[i-1].at))/1e6)
			}
		}
	}
	return run, verifyCampaignStore(dir, run.res)
}

// verifyCampaignStore re-opens a finished campaign's store and checks
// that recovery reproduces campaign.Run's result: the same findings, the
// same distinct-plan count, and one Done checkpoint per task whose
// counters add up to the run's.
func verifyCampaignStore(dir string, res *campaign.Result) error {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return fmt.Errorf("re-opening campaign store: %w", err)
	}
	defer st.Close()
	rec := st.Recovered()
	if rec.Truncated > 0 {
		return fmt.Errorf("store recovery truncated %d shard tail(s)", rec.Truncated)
	}
	got := make([]string, 0, len(rec.Findings))
	for _, f := range rec.Findings {
		got = append(got, campaign.Finding{Engine: f.Engine, Oracle: f.Oracle,
			Kind: campaign.Kind(f.Kind), Query: f.Query, Detail: f.Detail}.String())
	}
	want := make([]string, 0, len(res.Findings))
	for _, f := range res.Findings {
		want = append(want, f.String())
	}
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		return fmt.Errorf("store recovered %d findings, campaign reported %d (or their contents differ)", len(got), len(want))
	}
	if len(rec.Plans) != res.Stats.DistinctPlans {
		return fmt.Errorf("store recovered %d distinct plans, campaign reported %d", len(rec.Plans), res.Stats.DistinctPlans)
	}
	tasks := len(dbms.Names()) * len(campaign.AllOracles())
	done, queries := 0, 0
	perEngine := map[string]int{}
	for _, p := range rec.Progress {
		if p.Done {
			done++
			queries += p.Queries
			perEngine[p.Engine] += p.Queries
		}
	}
	if done != tasks {
		return fmt.Errorf("store recovered %d Done checkpoints, want one per task (%d)", done, tasks)
	}
	if queries != res.Stats.Queries {
		return fmt.Errorf("Done checkpoints total %d queries, campaign reported %d", queries, res.Stats.Queries)
	}
	for e, es := range res.Stats.Engines {
		if perEngine[e] != es.Queries {
			return fmt.Errorf("engine %s: Done checkpoints total %d queries, campaign reported %d", e, perEngine[e], es.Queries)
		}
	}
	return nil
}

// findingsDigest hashes a campaign's canonical finding list.
func findingsDigest(res *campaign.Result) string {
	h := sha256.New()
	for _, f := range res.Findings {
		h.Write([]byte(f.String()))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// taskErrors counts the hard task failures joined into campaign.Run's
// error.
func taskErrors(err error) int {
	if err == nil {
		return 0
	}
	if j, ok := err.(interface{ Unwrap() []error }); ok {
		return len(j.Unwrap())
	}
	return 1
}

// campaignSetup is the workload's set-up: the query-stream digest and a
// short warm-up campaign that builds every engine, schema and converter
// once before anything is timed.
func campaignSetup(work string, seed int64) (string, error) {
	digest := queryStreamDigest(seed)
	run, err := runCampaignOnce(work, seed, warmupQueries)
	if err != nil {
		return "", fmt.Errorf("warm-up campaign: %w", err)
	}
	if run.err != nil {
		return "", fmt.Errorf("warm-up campaign: %w", run.err)
	}
	return digest, nil
}

// runCampaignWorkload runs back-to-back campaigns for the measured
// section and reports the median campaign's figures.
func runCampaignWorkload(cfg runConfig) (*result, error) {
	r := newResult()
	var setups []float64
	var digest string
	for moreSetups(setups) {
		t0 := time.Now()
		d, err := campaignSetup(cfg.work, cfg.seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		digest = d
	}
	r.set("setup_s", median(setups))
	r.note("provenance: campaign query-stream digest sha256:%s (%d engines x %d oracles, %d queries per task)",
		digest, len(dbms.Names()), len(campaign.AllOracles()), campaignQueries)
	if cfg.trace {
		return r, traceCampaign(cfg, r)
	}

	var qps, cpuPerOp, p99s []float64
	var intervals dist
	var first string
	expected, haveExpected := expectedFindings[cfg.seed]
	deadline := time.Now().Add(cfg.seconds)
	for rep := 0; rep == 0 || time.Now().Before(deadline); rep++ {
		run, err := runCampaignOnce(cfg.work, cfg.seed, campaignQueries)
		if run == nil {
			return nil, err
		}
		q := run.res.Stats.Queries
		failed := taskErrors(run.err)
		if err != nil {
			r.fail("campaign %d: %v", rep, err)
			failed++
		}
		d := findingsDigest(run.res)
		if rep == 0 {
			first = d
			r.note("campaign: %d queries, %d findings (sha256:%s), %d distinct plans per run",
				q, len(run.res.Findings), d, run.res.Stats.DistinctPlans)
		}
		if d != first {
			r.fail("campaign %d: finding set sha256:%s differs from the first run's", rep, d)
			failed++
		}
		if haveExpected && d != expected {
			r.fail("campaign %d: finding set sha256:%s, recorded for seed %d: sha256:%s", rep, d, cfg.seed, expected)
			failed++
		}
		if run.err != nil {
			r.fail("campaign %d: %v", rep, run.err)
		}
		r.attempted += int64(q + failed)
		r.failed += int64(failed)
		qps = append(qps, float64(q)/run.wall.Seconds())
		cpuPerOp = append(cpuPerOp, float64(run.cpu.Microseconds())/float64(q))
		runIntervals := dist{xs: run.interval}
		tail, _ := runIntervals.tail()
		p99s = append(p99s, tail)
		intervals.xs = append(intervals.xs, run.interval...)
	}
	if !haveExpected {
		r.note("no recorded finding set for seed %d; checked run-to-run determinism only", cfg.seed)
	}
	r.set("ops_per_s", median(qps))
	r.set("cpu_us_per_op", median(cpuPerOp))
	r.set("latency_p50_ms", intervals.p50())
	r.set("latency_p99_ms", median(p99s))
	r.set("peak_rss_mb", peakRSSMB())
	r.note("campaign: %d runs; queries/s per run %s", len(qps), fmtList(qps, 0))
	r.note("latency = wall time of one task's %d-query checkpoint interval: n=%d; p99 = median of the runs' p99s %s",
		checkpointEvery, intervals.n(), fmtList(p99s, 1))
	return r, nil
}

// recordFindings prints the finding-set digest of seeds 0..n-1, the table
// expected.go holds.
func recordFindings(work string, n int) error {
	for seed := int64(0); seed < int64(n); seed++ {
		run, err := runCampaignOnce(work, seed, campaignQueries)
		if err != nil {
			return err
		}
		if run.err != nil {
			return run.err
		}
		fmt.Printf("\t%d: %q,\n", seed, findingsDigest(run.res))
	}
	return nil
}

// Package pipeline implements UPlan's batch-conversion subsystem:
// ConvertBatch converts a slice of (dialect, serialized-plan) records to
// the unified representation on a bounded worker pool and aggregates
// per-dialect statistics (throughput, parse errors, merged operation
// histograms). It is the one batch-conversion path: the plan service,
// the uplan facade and the benchmarks all go through it.
//
// The input slice itself is the work queue. Workers claim chunks of
// DefaultChunkSize records through an atomic cursor (ForEachChunkedCtx),
// write results straight into disjoint slots of the output slice, and
// fold their statistics into worker-local aggregates that merge exactly
// once, when the worker drains. A batch therefore performs no per-record
// synchronization, which keeps it competitive with the sequential cached
// path even on small corpora.
//
// Workers convert through the process-wide cached converters
// (convert.Cached), which share one registry and are safe for concurrent
// use, so a batch of n records performs n parses — not n registry
// constructions, which is what the one-shot convert.Convert path costs.
// Each conversion builds its plan in a pooled arena and detaches it with
// Plan.Clone, so every returned plan owns its memory. Name resolution
// reads the registry's immutable snapshot (see core.Registry), so workers
// never serialize on a registry lock even while a client concurrently
// registers new keywords.
package pipeline

import (
	"context"
	"runtime"
	"strings"
	"time"

	"uplan/internal/convert"
	"uplan/internal/core"
)

// Record is one unit of work: a serialized plan tagged with its dialect.
type Record struct {
	// Dialect is the engine key ("postgresql", …); case-insensitive.
	Dialect string
	// Serialized is the native EXPLAIN output to convert.
	Serialized string
}

// Result pairs a record with its conversion outcome. Exactly one of Plan
// and Err is non-nil.
type Result struct {
	// Seq is the record's 0-based index in the ConvertBatch input.
	Seq    int
	Record Record
	Plan   *core.Plan
	Err    error
}

// DefaultChunkSize is the records-per-claim unit ConvertBatch uses.
// Larger chunks amortize the claim; smaller ones balance uneven records
// and make cancellation finer.
const DefaultChunkSize = 32

// Options configures ConvertBatch. The zero value is ready to use.
type Options struct {
	// Workers is the number of concurrent conversion workers.
	// Non-positive values use GOMAXPROCS. The count is also clamped to
	// GOMAXPROCS and to the number of chunks: conversion is CPU-bound, so
	// goroutines beyond the schedulable cores only add overhead.
	Workers int
	// Context, when non-nil, cancels the run between chunks: records not
	// yet claimed when the context is done are skipped, and their Results
	// carry the context's error instead of a Plan.
	Context context.Context
}

// localDialect is one dialect's worker-local aggregate. Operation counts
// for the seven canonical categories accumulate in a fixed array — one
// comparison per operation instead of one map hash — and land in the
// DialectStats histogram only when the worker merges.
type localDialect struct {
	ds  *DialectStats
	ops [7]float64
}

// worker is the per-goroutine conversion state: thread-local statistics,
// merged into the shared aggregate once when the worker drains.
type worker struct {
	local map[string]*localDialect
}

// do converts one record into res — written in place, so workers fill
// their output slots without an intermediate copy — and updates the
// worker-local stats.
//
//uplan:hotpath
func (w *worker) do(res *Result, seq int, rec Record) {
	key := strings.ToLower(rec.Dialect)
	res.Seq, res.Record = seq, rec
	if c, err := convert.Cached(key); err != nil {
		res.Err = err
	} else {
		res.Plan, res.Err = c.Convert(rec.Serialized)
	}

	ld := w.local[key]
	if ld == nil {
		ld = &localDialect{ds: &DialectStats{Dialect: key, Operations: core.CategoryHistogram{}}}
		w.local[key] = ld
	}
	ld.ds.Records++
	if res.Err != nil {
		ld.ds.Errors++
		if ld.ds.FirstError == nil {
			ld.ds.FirstError = res.Err
		}
	} else {
		ld.ds.Converted++
		ld.countOps(res.Plan.Root)
	}
}

// countOps tallies the subtree's operations: canonical categories go to
// the fixed array, anything else (plans hand-built with custom
// categories) straight to the histogram map.
func (ld *localDialect) countOps(n *core.Node) {
	if n == nil {
		return
	}
	if i := core.CategoryIndex(n.Op.Category); i >= 0 {
		ld.ops[i]++
	} else {
		ld.ds.Operations[n.Op.Category]++
	}
	for _, c := range n.Children {
		ld.countOps(c)
	}
}

// drain folds the array counts into the histogram and returns the
// completed per-dialect aggregate.
func (ld *localDialect) drain() *DialectStats {
	for i, n := range ld.ops {
		if n != 0 {
			ld.ds.Operations[core.OperationCategories[i]] += n
		}
	}
	return ld.ds
}

// ConvertBatch converts records on a transient chunked worker pool and
// returns the results indexed like the input (results[i] is records[i]'s
// outcome) plus the aggregate statistics. Per-record failures — unknown
// dialects, malformed plans — are reported in the matching Result.Err and
// counted in the stats; they do not stop the batch.
func ConvertBatch(records []Record, opts Options) ([]Result, Stats) {
	return convertBatch(records, opts, DefaultChunkSize)
}

// convertBatch is ConvertBatch with workers claiming chunk records at a
// time; tests vary chunk to pin that results do not depend on it.
func convertBatch(records []Record, opts Options, chunk int) ([]Result, Stats) {
	workers, ctx := opts.Workers, opts.Context
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]Result, len(records))
	stats := Stats{Dialects: map[string]*DialectStats{}}
	start := time.Now()

	// The claim-a-chunk/private-worker-state/merge-once-at-drain machinery
	// lives in ForEachChunkedCtx (clamping workers to GOMAXPROCS and to
	// the chunk count, running single-worker pools inline); ConvertBatch
	// supplies the conversion worker and its stat merge.
	ForEachChunkedCtx(ctx, len(records), workers, chunk,
		func() *worker { return &worker{local: map[string]*localDialect{}} },
		func(w *worker, lo, hi int) {
			for i := lo; i < hi; i++ {
				w.do(&out[i], i, records[i])
			}
		},
		func(w *worker) {
			for key, ld := range w.local {
				stats.merge(key, ld.drain())
			}
		})
	if err := ctx.Err(); err != nil {
		// Chunks unclaimed at cancellation were never converted; their
		// slots still hold the zero Result. Mark them so the "exactly one
		// of Plan and Err" contract holds for every returned slot.
		for i := range out {
			if out[i].Plan == nil && out[i].Err == nil {
				out[i] = Result{Seq: i, Record: records[i], Err: err}
			}
		}
	}
	stats.Elapsed = time.Since(start)
	return out, stats
}

package main

import (
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"
)

// layers are the modules the traced runs attribute self time to. bench
// is the benchmark's own work between calls (query glue, request
// scheduling and set-up), replay the work the layer replay repeats to
// reach a function the program does not expose on its own.
var layers = []string{
	"bench", "replay", "sqlancer", "sql", "planner", "exec", "datum", "dbms", "explain",
	"bounds", "oracle", "campaign", "store", "convert", "core", "codec", "pipeline",
	"serve", "serveclient",
}

// layerMetric is a per-layer metric and the workloads whose traced run
// exercises it; on the others it is reported as 0.
type layerMetric struct {
	metricDef
	on string // "campaign", "serve" or "all"
}

func callMetrics(name, unit, on string) []layerMetric {
	return []layerMetric{{metricDef{name + ".p50", unit}, on}, {metricDef{name + ".p99", unit}, on}}
}

var perLayerDefs = func() []layerMetric {
	var ms []layerMetric
	add := func(m ...layerMetric) { ms = append(ms, m...) }
	one := func(name, unit, on string) { add(layerMetric{metricDef{name, unit}, on}) }
	// Engine side, from the campaign's layer replay.
	for _, n := range []string{"sqlancer.gen_us", "sql.parse_us", "planner.plan_us", "exec.run_us",
		"datum.rowkey_us", "dbms.explain_us", "dbms.execute_us", "dbms.shape_us",
		"explain.serialize_us", "bounds.bound_us", "convert.decode_us"} {
		add(callMetrics(n, "us", "campaign")...)
	}
	one("exec.rows_per_query", "rows", "campaign")
	one("explain.bytes_per_plan", "bytes", "campaign")
	// Oracle layer, from the oracle tasks.
	for _, o := range []string{"qpg", "cert", "tlp", "bounds"} {
		one("oracle."+o+".task_ms.p50", "ms", "campaign")
		add(callMetrics("oracle."+o+".query_us", "us", "campaign")...)
		one("oracle."+o+".useful_ratio", "ratio", "campaign")
	}
	add(callMetrics("campaign.observe_us", "us", "campaign")...)
	one("campaign.new_plan_ratio", "ratio", "campaign")
	add(callMetrics("store.append_us", "us", "campaign")...)
	add(callMetrics("store.checkpoint_ms", "ms", "campaign")...)
	one("store.bytes_per_query", "bytes", "campaign")
	// Shared by both sides.
	add(callMetrics("core.fingerprint_us", "us", "all")...)
	// Service side.
	add(callMetrics("convert.convert_us", "us", "serve")...)
	add(callMetrics("codec.encode_us", "us", "serve")...)
	add(callMetrics("pipeline.batch_us", "us", "serve")...)
	one("pipeline.plans_per_s", "1/s", "serve")
	add(callMetrics("serve.handler_us", "us", "serve")...)
	add(callMetrics("net.transport_us", "us", "serve")...)
	add(callMetrics("serveclient.roundtrip_us", "us", "serve")...)
	for _, w := range []string{"json", "binary"} {
		one("serveclient.req_bytes."+w, "bytes", "serve")
		one("serveclient.resp_bytes."+w, "bytes", "serve")
	}
	one("serve.cache_hit_ratio", "ratio", "serve")
	one("serve.queue_depth_p99", "requests", "serve")
	one("serve.in_flight_mean", "requests", "serve")
	one("serve.shed_ratio", "ratio", "serve")
	one("serve.convert_p50_ms", "ms", "serve")
	one("serve.convert_p99_ms", "ms", "serve")
	one("serve.batch_p50_ms", "ms", "serve")
	one("serve.batch_p99_ms", "ms", "serve")
	one("bench.gen_lag_p99_ms", "ms", "serve")
	// Go runtime, over the untraced measured section.
	one("runtime.gc_cpu_fraction", "ratio", "all")
	one("runtime.alloc_bytes_per_op", "bytes", "all")
	// Self-time shares and the trace's own health.
	for _, l := range layers {
		one(l+".share", "ratio", "all")
	}
	one("trace.share_sum", "ratio", "all")
	one("trace.overhead_ratio", "ratio", "all")
	return ms
}()

var perLayer = func() []metricDef {
	out := make([]metricDef, len(perLayerDefs))
	for i, m := range perLayerDefs {
		out[i] = m.metricDef
	}
	return out
}()

// fillBypassed sets the per-layer metrics the workload's traced run does
// not exercise to 0 and names them.
func fillBypassed(workload string, r *result) {
	family := "serve"
	if workload == "campaign" {
		family = "campaign"
	}
	var bypassed []string
	for _, m := range perLayerDefs {
		if m.on != "all" && m.on != family {
			if _, set := r.values[m.name]; !set {
				r.set(m.name, 0)
				bypassed = append(bypassed, m.name)
			}
		}
	}
	if len(bypassed) > 0 {
		r.note("bypassed on %s (reported as 0): %d metrics of layers this workload does not call", workload, len(bypassed))
	}
}

// setShares reports each layer's self time as a share of the traced wall
// time, and checks that the shares add up to it within 10%.
func setShares(r *result, rep *traceReport, wall time.Duration) {
	sum := 0.0
	type share struct {
		layer string
		v     float64
	}
	var shown []share
	for _, l := range layers {
		v := rep.layerSelf[l].Seconds() / wall.Seconds()
		r.set(l+".share", v)
		sum += v
		if v > 0 {
			shown = append(shown, share{l, v})
		}
	}
	for l := range rep.layerSelf {
		if !slices.Contains(layers, l) {
			r.fail("span layer %q is not a known layer", l)
		}
	}
	sort.Slice(shown, func(i, j int) bool { return shown[i].v > shown[j].v })
	parts := make([]string, len(shown))
	for i, s := range shown {
		parts[i] = fmt.Sprintf("%s %.1f%%", s.layer, 100*s.v)
	}
	r.note("layer shares of %s traced wall time: %s", wall.Round(time.Millisecond), strings.Join(parts, ", "))
	r.set("trace.share_sum", sum)
	if sum < 0.9 || sum > 1.1 {
		r.fail("layer shares add up to %.3f of traced wall time, outside 0.9-1.1", sum)
	}
}

// writeSpans writes each pass's spans to the work directory.
func writeSpans(cfg runConfig, r *result, passes map[string]*tracer) error {
	for name, tr := range passes {
		path := filepath.Join(cfg.work, fmt.Sprintf("spans-%s-seed%d-%s.jsonl", cfg.workload, cfg.seed, name))
		if err := tr.write(path); err != nil {
			return err
		}
		r.note("spans: %s (%d)", path, len(tr.spans))
	}
	return nil
}

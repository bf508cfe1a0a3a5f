package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"uplan/internal/codec"
	"uplan/internal/convert"
	"uplan/internal/core"
	"uplan/internal/pipeline"
	"uplan/internal/serve"
	"uplan/internal/serve/serveclient"
)

// spanHeader carries the client's round-trip span to the server-side
// handler span: "<span id>:<op>".
const spanHeader = "X-Perfbench-Span"

type spanKey struct{}

// spanTransport adds the round-trip span of the request's context to the
// request headers.
type spanTransport struct{ base http.RoundTripper }

func (t spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if sp, ok := req.Context().Value(spanKey{}).(open); ok {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.FormatInt(sp.id, 10)+":"+strconv.FormatInt(sp.op, 10))
	}
	return t.base.RoundTrip(req)
}

// handlerTrace wraps Server.Handler(): it records a serve.handler span
// under the client's round-trip span and notes, per request, whether the
// response cache answered and how many bytes crossed the wire.
type handlerTrace struct {
	next http.Handler
	tr   *tracer

	mu     sync.Mutex
	missed map[int64]bool       // op -> the convert response was not cached
	bytes  map[string]*[2]int64 // wire -> request, response bytes
	count  map[string]int64
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

func (h *handlerTrace) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id, op, ok := parseSpanHeader(r.Header.Get(spanHeader))
	if !ok {
		h.next.ServeHTTP(w, r)
		return
	}
	parent := open{id: id, op: op, tr: h.tr}
	sp := parent.child("serve.handler")
	cw := &countingWriter{ResponseWriter: w}
	h.next.ServeHTTP(cw, r)
	sp.end()
	wire := "json"
	if strings.HasPrefix(r.Header.Get("Content-Type"), serve.BinaryContentType) {
		wire = "binary"
	}
	h.mu.Lock()
	h.missed[op] = cw.Header().Get(serve.CacheHeader) != "hit"
	b := h.bytes[wire]
	b[0] += r.ContentLength
	b[1] += cw.n
	h.count[wire]++
	h.mu.Unlock()
}

func parseSpanHeader(v string) (id, op int64, ok bool) {
	a, b, found := strings.Cut(v, ":")
	if !found {
		return 0, 0, false
	}
	id, err1 := strconv.ParseInt(a, 10, 64)
	op, err2 := strconv.ParseInt(b, 10, 64)
	return id, op, err1 == nil && err2 == nil
}

// traceServe is the service workloads' traced run. The ladder that ran
// untraced before it gives the admission, cache and runtime metrics.
// Then, on one sender and closed-loop for a quarter of the measured
// section each:
//
//  1. untraced requests, the baseline for the tracing overhead;
//  2. traced requests, through a second listener whose handler wraps
//     Server.Handler() to record a server-side span under the client's
//     round-trip span;
//  3. the layer probes: each traced request's conversion work done again
//     through convert, core, codec and pipeline, for the requests the
//     response cache did not answer.
//
// Layer shares are taken over the wall time of 2 and 3.
func traceServe(cfg runConfig, r *result, env *serveEnv, lr *ladderResult, m0, m1 serve.MetricsSnapshot) error {
	ladderMetrics(r, lr, m0, m1)
	section := cfg.seconds / 4

	base, _, err := closedLoop(env, env.client, section, nil)
	if err != nil {
		return err
	}

	tr := newTracer()
	ht := &handlerTrace{next: env.srv.Handler(), tr: tr, missed: map[int64]bool{},
		bytes: map[string]*[2]int64{"json": {}, "binary": {}}, count: map[string]int64{}}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: ht, ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(l) }()
	transport := newTransport()
	client := newClient("http://"+l.Addr().String(), spanTransport{base: transport})
	traced, reqs, err := closedLoop(env, client, section, tr)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	serr := hs.Shutdown(ctx)
	cancel()
	transport.CloseIdleConnections()
	if werr := <-served; !errors.Is(werr, http.ErrServerClosed) && serr == nil {
		serr = werr
	}
	if err != nil {
		return err
	}
	if serr != nil {
		return fmt.Errorf("stopping the traced listener: %w", serr)
	}
	r.attempted += int64(len(reqs))
	r.set("trace.overhead_ratio", traced.Seconds()/base.Seconds()-1)
	r.note("tracing overhead: %.1f us/request untraced vs %.1f us/request traced (one sender, closed loop)",
		float64(base.Nanoseconds())/1e3, float64(traced.Nanoseconds())/1e3)

	probeStart := time.Now()
	plans, err := probe(env, tr, reqs, ht.missed)
	if err != nil {
		return err
	}
	probeWall := time.Since(probeStart)

	rep := tr.analyze()
	setCall(r, rep, "serve.handler_us", "serve.handler", false)
	setCall(r, rep, "net.transport_us", "serveclient.roundtrip", true)
	setCall(r, rep, "serveclient.roundtrip_us", "serveclient.roundtrip", false)
	setCall(r, rep, "convert.convert_us", "convert.convert", false)
	setCall(r, rep, "core.fingerprint_us", "core.fingerprint", false)
	setCall(r, rep, "codec.encode_us", "codec.encode", false)
	setCall(r, rep, "pipeline.batch_us", "pipeline.batch", false)
	batchTime := 0.0
	if cs := rep.calls["pipeline.batch"]; cs != nil {
		for _, x := range cs.dur.xs {
			batchTime += x / 1e6
		}
	}
	r.set("pipeline.plans_per_s", float64(plans)/batchTime)
	for _, w := range []string{"json", "binary"} {
		n := float64(max(ht.count[w], 1))
		r.set("serveclient.req_bytes."+w, float64(ht.bytes[w][0])/n)
		r.set("serveclient.resp_bytes."+w, float64(ht.bytes[w][1])/n)
	}
	requestWall := traced * time.Duration(len(reqs))
	setShares(r, rep, requestWall+probeWall)
	return writeSpans(cfg, r, map[string]*tracer{"requests": tr})
}

// ladderMetrics reports what the untraced ladder measured at the service
// boundary: admission, cache, batch latency, generator lag and the Go
// runtime.
func ladderMetrics(r *result, lr *ladderResult, m0, m1 serve.MetricsSnapshot) {
	var queue, inFlight dist
	var shed, sent int64
	for _, rr := range lr.rungs {
		queue.xs = append(queue.xs, rr.queue.xs...)
		inFlight.xs = append(inFlight.xs, rr.inFlight.xs...)
		shed += rr.shed
		sent += int64(rr.sent)
	}
	qTail, _ := queue.tail()
	r.set("serve.queue_depth_p99", qTail)
	r.set("serve.in_flight_mean", inFlight.mean())
	r.set("serve.shed_ratio", float64(shed)/float64(max(sent, 1)))
	hits, misses := m1.Cache.Hits-m0.Cache.Hits, m1.Cache.Misses-m0.Cache.Misses
	r.set("serve.cache_hit_ratio", float64(hits)/float64(max(hits+misses, 1)))
	ref := lr.rungs[0]
	bTail, _ := ref.batch.tail()
	r.set("serve.convert_p50_ms", ref.convert.p50())
	r.set("serve.convert_p99_ms", ref.convert.windowTail(tailWindow))
	r.set("serve.batch_p50_ms", ref.batch.p50())
	r.set("serve.batch_p99_ms", bTail)
	lag, _ := ref.genLag.tail()
	r.set("bench.gen_lag_p99_ms", lag)
	gc, alloc := runtimeDelta(ref.rt0, ref.rt1, int64(ref.sent))
	r.set("runtime.gc_cpu_fraction", gc)
	r.set("runtime.alloc_bytes_per_op", alloc)
}

// closedLoop sends the schedule's next requests back to back from one
// goroutine for d, or until serve-miss's pool runs out, and returns the
// mean wall time per request. With a
// tracer, each request is a bench.request span holding its
// serveclient.roundtrip span; the response check is the request span's
// self time.
func closedLoop(env *serveEnv, c *serveclient.Client, d time.Duration, tr *tracer) (time.Duration, []request, error) {
	ar := core.NewPlanArena()
	var reqs []request
	start := time.Now()
	for time.Since(start) < d {
		req, ok := env.sched.next()
		if !ok {
			break // serve-miss has used up its pool: the section ends early
		}
		var err error
		if tr != nil {
			root := tr.root("bench.request", int64(len(reqs)+1))
			rt := root.child("serveclient.roundtrip")
			var resp response
			resp, err = env.call(context.WithValue(context.Background(), spanKey{}, rt), c, req, ar)
			rt.end()
			if err == nil {
				err = env.check(req, resp)
			}
			root.end()
		} else {
			err = env.do(context.Background(), c, req, ar)
		}
		if err != nil {
			return 0, nil, fmt.Errorf("closed-loop request: %w", err)
		}
		reqs = append(reqs, req)
	}
	return time.Since(start) / time.Duration(max(len(reqs), 1)), reqs, nil
}

// probe does each traced request's conversion work again through the
// layer functions the handler is built from, and returns how many plans
// the batch probes converted.
func probe(env *serveEnv, tr *tracer, reqs []request, missed map[int64]bool) (int, error) {
	ar := core.NewPlanArena()
	plans := 0
	for i, req := range reqs {
		op := int64(i + 1)
		if !req.batch && !missed[op] {
			continue
		}
		root := tr.root("bench.probe", op)
		if !req.batch {
			in := env.pool[req.inputs[0]]
			ar.Reset()
			cv := root.child("convert.convert")
			p, err := convert.ConvertInto(in.dialect, in.text, ar)
			cv.end()
			if err != nil {
				return 0, err
			}
			if err := probeEncode(root, p, req.binary, true); err != nil {
				return 0, err
			}
			root.end()
			continue
		}
		recs := make([]pipeline.Record, len(req.inputs))
		for j, idx := range req.inputs {
			recs[j] = pipeline.Record{Dialect: env.pool[idx].dialect, Serialized: env.pool[idx].text}
		}
		pb := root.child("pipeline.batch")
		results, _ := pipeline.ConvertBatch(recs, pipeline.Options{})
		pb.end()
		for _, res := range results {
			if res.Err != nil {
				return 0, res.Err
			}
			if err := probeEncode(root, res.Plan, req.binary, false); err != nil {
				return 0, err
			}
		}
		plans += len(results)
		root.end()
	}
	return plans, nil
}

// probeEncode is the per-plan response work: fingerprints for a single
// convert, then the plan's wire encoding.
func probeEncode(root open, p *core.Plan, binary, fingerprint bool) error {
	if fingerprint {
		fp := root.child("core.fingerprint")
		p.FingerprintBytes(core.FingerprintOptions{})
		p.Fingerprint64(core.FingerprintOptions{})
		fp.end()
	}
	var err error
	if binary {
		en := root.child("codec.encode")
		_, err = codec.Encode(p)
		en.end()
	} else {
		mj := root.child("core.marshal_json")
		_, err = p.MarshalJSON()
		mj.end()
	}
	return err
}

package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one traced call into a layer: the benchmark records it around
// a call into a module's public functions. Op ties together the spans of
// one campaign query or one service request.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every finished span in memory until the run ends. It is
// safe for concurrent use: the service handler records its spans from the
// server's goroutines.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open is a span that has started but not finished.
type open struct {
	name       string
	id, parent int64
	op         int64
	start      int64
	tr         *tracer
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// root starts a top-level span for operation op.
func (t *tracer) root(name string, op int64) open {
	return open{name: name, id: t.ids.Add(1), op: op, start: t.now(), tr: t}
}

// child starts a span nested in parent.
func (p open) child(name string) open {
	return open{name: name, id: p.tr.ids.Add(1), parent: p.id, op: p.op, start: p.tr.now(), tr: p.tr}
}

// end finishes the span and returns its duration.
func (p open) end() time.Duration {
	end := p.tr.now()
	p.tr.record(span{Name: p.name, ID: p.id, Parent: p.parent, Op: p.op, Start: p.start, End: end})
	return time.Duration(end - p.start)
}

// nested records an already-timed child interval of p.
func (p open) nested(name string, start, end int64) {
	p.tr.record(span{Name: name, ID: p.tr.ids.Add(1), Parent: p.id, Op: p.op, Start: start, End: end})
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerOf names the layer a span belongs to: the module prefix of its
// name ("sql.parse" belongs to "sql").
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// callStats summarises the spans of one name: their durations and their
// self times (duration minus the part covered by child spans), in
// microseconds.
type callStats struct {
	dur, self dist
}

// traceReport is the analysed trace: per-name call statistics and
// per-layer self time.
type traceReport struct {
	calls     map[string]*callStats
	layerSelf map[string]time.Duration
}

func (t *tracer) analyze() *traceReport {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rep := &traceReport{calls: map[string]*callStats{}, layerSelf: map[string]time.Duration{}}
	for _, s := range spans {
		dur := s.End - s.Start
		self := dur - covered(s, children[s.ID])
		cs := rep.calls[s.Name]
		if cs == nil {
			cs = &callStats{}
			rep.calls[s.Name] = cs
		}
		cs.dur.add(float64(dur) / 1e3)
		cs.self.add(float64(self) / 1e3)
		rep.layerSelf[layerOf(s.Name)] += time.Duration(self)
	}
	return rep
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curLo, curHi int64
	first := true
	for _, x := range iv {
		if first || x[0] > curHi {
			if !first {
				sum += curHi - curLo
			}
			curLo, curHi, first = x[0], x[1], false
			continue
		}
		curHi = max(curHi, x[1])
	}
	if !first {
		sum += curHi - curLo
	}
	return sum
}

// durStats returns p50 and tail of a name's span durations (us).
func (r *traceReport) durStats(name string) (p50, tail float64) {
	cs := r.calls[name]
	if cs == nil {
		return 0, 0
	}
	tail, _ = cs.dur.tail()
	return cs.dur.p50(), tail
}

// selfStats returns p50 and tail of a name's span self times (us).
func (r *traceReport) selfStats(name string) (p50, tail float64) {
	cs := r.calls[name]
	if cs == nil {
		return 0, 0
	}
	tail, _ = cs.self.tail()
	return cs.self.p50(), tail
}

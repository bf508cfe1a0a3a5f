package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"uplan/internal/bench"
	"uplan/internal/convert"
	"uplan/internal/core"
	"uplan/internal/pipeline"
)

// oddStrings exercise the escaper: HTML-sensitive bytes, controls, the
// line separators, invalid UTF-8 and multi-byte runes.
var oddStrings = []string{
	"", "postgresql", `<a href="x">&amp;</a>`, "tab\tnl\ncr\r\x00\x1f\\\"",
	"\u2028\u2029", "a\xffb\xc3\x28c\xed\xa0\x80", "é😀", strings.Repeat("x", 300),
}

// corpusPlans converts a slice of the nine-dialect benchmark corpus.
func corpusPlans(t testing.TB, n int) ([]pipeline.Record, []*core.Plan) {
	t.Helper()
	corpus, err := bench.Corpus(0)
	if err != nil {
		t.Fatal(err)
	}
	corpus = corpus[:min(n, len(corpus))]
	plans := make([]*core.Plan, len(corpus))
	for i, rec := range corpus {
		if plans[i], err = convert.Convert(rec.Dialect, rec.Serialized); err != nil {
			t.Fatal(err)
		}
	}
	return corpus, plans
}

// marshalConvertResponse is the convert body as the handler built it
// before appendConvertBody: a ConvertResponse through json.Marshal.
func marshalConvertResponse(t *testing.T, dialect string, p *core.Plan) []byte {
	t.Helper()
	planJSON, err := p.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(ConvertResponse{
		Dialect:       dialect,
		Plan:          planJSON,
		Fingerprint64: strconv.FormatUint(p.Fingerprint64(core.FingerprintOptions{}), 10),
		Fingerprint:   core.HexFingerprint(p.FingerprintBytes(core.FingerprintOptions{})),
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// marshalBatchResponse is the batch body as the handler built it before
// appendBatchBody.
func marshalBatchResponse(t *testing.T, results []pipeline.Result, agg batchBody) []byte {
	t.Helper()
	resp := BatchResponse{
		Results:          make([]BatchItem, len(results)),
		Converted:        agg.converted,
		DeadlineExceeded: agg.deadlineExceeded,
		ElapsedSeconds:   agg.elapsedSeconds,
		PlansPerSec:      agg.plansPerSec,
	}
	for i, res := range results {
		if res.Err != nil {
			resp.Results[i] = BatchItem{Error: res.Err.Error()}
			resp.Errors++
			continue
		}
		planJSON, err := res.Plan.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		resp.Results[i] = BatchItem{Plan: planJSON}
	}
	body, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func TestWireJSONConvertBodyGolden(t *testing.T) {
	corpus, plans := corpusPlans(t, 90)
	for i, p := range plans {
		want := marshalConvertResponse(t, corpus[i].Dialect, p)
		if got := appendConvertBody(nil, corpus[i].Dialect, p); !bytes.Equal(got, want) {
			t.Fatalf("record %d (%s): convert body diverges\n got: %s\nwant: %s", i, corpus[i].Dialect, got, want)
		}
	}
	for _, d := range oddStrings {
		want := marshalConvertResponse(t, d, plans[0])
		if got := appendConvertBody([]byte("stale"), d, plans[0]); !bytes.Equal(got[len("stale"):], want) {
			t.Fatalf("dialect %q: convert body diverges\n got: %s\nwant: %s", d, got, want)
		}
	}
}

func TestWireJSONBatchBodyGolden(t *testing.T) {
	corpus, plans := corpusPlans(t, 40)
	var results []pipeline.Result
	for i, p := range plans {
		results = append(results, pipeline.Result{Seq: i, Record: corpus[i], Plan: p})
	}
	// Error slots: a conversion failure, a deadline cut-off, an error
	// whose text needs escaping, and one with no text at all.
	for _, err := range []error{
		errors.New(`convert: unknown dialect "no-such-db"`),
		context.DeadlineExceeded,
		errors.New("bad <plan> & \u2028 \xff"),
		errors.New(""),
	} {
		results = append(results, pipeline.Result{Err: err})
		results = append(results, results[0])
	}
	for _, agg := range []batchBody{
		{converted: 44, elapsedSeconds: 0.0123456789, plansPerSec: 3564.2},
		{converted: 0, deadlineExceeded: true, elapsedSeconds: 30, plansPerSec: 0},
		{converted: 1, elapsedSeconds: 1e-7, plansPerSec: 1e21},
		{converted: 2, elapsedSeconds: 5e-324, plansPerSec: 123456789.125},
		{converted: 3, elapsedSeconds: math.Copysign(0, -1), plansPerSec: 1e-6},
		{converted: 4, elapsedSeconds: (1500 * time.Microsecond).Seconds(), plansPerSec: 999999999999999900000},
	} {
		want := marshalBatchResponse(t, results, agg)
		if got := appendBatchBody(nil, results, agg); !bytes.Equal(got, want) {
			t.Fatalf("%+v: batch body diverges\n got: %s\nwant: %s", agg, got, want)
		}
		one := results[len(results)-2:]
		if got := appendBatchBody(nil, one, agg); !bytes.Equal(got, marshalBatchResponse(t, one, agg)) {
			t.Fatalf("%+v: single-slot batch body diverges: %s", agg, got)
		}
	}
}

func TestWireJSONRequestBodiesGolden(t *testing.T) {
	var recs []ConvertRequest
	for _, d := range oddStrings {
		for _, s := range oddStrings {
			req := ConvertRequest{Dialect: d, Serialized: s}
			want, _ := json.Marshal(req)
			if got := AppendConvertRequestJSON(nil, req); !bytes.Equal(got, want) {
				t.Fatalf("%+v: request body %s, want %s", req, got, want)
			}
			recs = append(recs, req)
		}
	}
	for _, req := range []BatchRequest{{}, {Records: []ConvertRequest{}}, {Records: recs[:1]}, {Records: recs}} {
		want, _ := json.Marshal(req)
		if got := AppendBatchRequestJSON(nil, req); !bytes.Equal(got, want) {
			t.Fatalf("batch of %d: request body %s, want %s", len(req.Records), got, want)
		}
	}
}

// wireRequestSeeds are request bodies on and off the canonical shape.
var wireRequestSeeds = []string{
	`{"dialect":"postgresql","serialized":"Seq Scan on t1  (cost=0.00..431.00 rows=20100 width=4)"}`,
	` {"serialized" : "x\ny", "dialect":"mysql"} trailing`,
	`{"dialect":"a\"b\\c\u00e9\ud83d\ude00","serialized":"\ud800\ud800\udc00"}`,
	`{"Dialect":"postgresql","SERIALIZED":"x"}`,
	`{"dialect":null,"serialized":"x"}`,
	`{"dialect":"a","dialect":"b"}`,
	`{"dialect":"a","extra":1}`,
	`{"dialect":1}`,
	"{\"dialect\":\"\xff\xfe\",\"serialized\":\"x\"}",
	"{\"dialect\":\"\\u0000\xed\xa0\x80\"}",
	`{}`, ``, `   `, `[]`, `null`, `"x"`, `{"dialect":"x"`, `{"dialect":"x",}`,
	`{"records":[{"dialect":"postgresql","serialized":"a"},{"dialect":"mysql","serialized":"b"}]}`,
	`{"records":[]}`, `{"records":null}`, `{"records":[null]}`, `{"records":[{}]}`,
	`{"records":[{"dialect":"a"}],"records":[{"serialized":"b"}]}`,
	`{"records":[{"Dialect":"a"}]}`, `{"records":{}}`, `{"Records":[]}`,
	`{"records":[{"dialect":"a","serialized":"b"}]}{"records":[]}`,
}

// FuzzWireJSONRequest is the request differential: for any body, the
// decoded value, acceptance and error text of the one-pass decoders equal
// the encoding/json decode the server always ran, so the status a client
// sees cannot change either.
func FuzzWireJSONRequest(f *testing.F) {
	for _, s := range wireRequestSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkSameDecode(t, "convert request", body, DecodeConvertRequestJSON, decodeStrict[ConvertRequest])
		checkSameDecode(t, "batch request", body, DecodeBatchRequestJSON, decodeStrict[BatchRequest])
	})
}

// wireResponseSeeds are response bodies on and off the canonical shape.
var wireResponseSeeds = []string{
	`{"dialect":"postgresql","plan":{"source":"postgresql","tree":{"operation":{"category":"Producer","name":"Full Table Scan"}}},"fingerprint64":"123","fingerprint":"abc"}`,
	`{"plan": { "a" : [1, 2] } , "dialect":"x"}`,
	`{"dialect":"x","plan":null}`, `{"plan":"str"}`, `{"plan":[1]}`, `{"plan":{},"plan":{"a":1}}`,
	`{"Dialect":"x"}`, `{"dialect":"x","unknown":true}`, "{\"fingerprint\":\"\xff\"}",
	`{"results":[{"plan":{"source":"x"}},{"error":"boom"},{}],"converted":1,"errors":2,"elapsed_seconds":0.0123,"plans_per_sec":81.3}`,
	`{"results":[],"converted":0,"errors":0,"deadline_exceeded":true,"elapsed_seconds":1e-7,"plans_per_sec":1e21}`,
	`{"results":null}`, `{"results":[null]}`, `{"converted":1.5}`, `{"converted":1e2}`, `{"converted":-0}`,
	`{"converted":99999999999999999999}`, `{"elapsed_seconds":1e400}`, `{"deadline_exceeded":null}`,
	`{"deadline_exceeded":false,"deadline_exceeded":true}`, `{"results":[{"plan":{},"error":"x"}]}`,
	`{"results":[{"error":"a","error":"b"}]}`, `{"results":[{"Plan":{}}]}`, `{"converted":"1"}`,
	`{"results":[{"plan":{}}],"results":[{"error":"x"}]}`, `{"results":[],"results":[{}]}`,
	``, `{`, `[]`,
}

// FuzzWireJSONResponse is the client-side differential: the one-pass
// response decoders agree with json.Decoder on every body, and what they
// return shares no memory with the (reused) body buffer.
func FuzzWireJSONResponse(f *testing.F) {
	for _, s := range wireResponseSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkSameDecode(t, "convert response", body, DecodeConvertResponseJSON, decodeResponseFallback[ConvertResponse])
		checkSameDecode(t, "batch response", body, DecodeBatchResponseJSON, decodeResponseFallback[BatchResponse])
	})
}

// checkSameDecode runs decode and the reference over body and compares
// acceptance, error text and, on success, the value — after overwriting
// body, so a result that aliases it shows up as a mismatch.
func checkSameDecode[T any](t *testing.T, what string, body []byte, decode, ref func([]byte) (T, error)) {
	t.Helper()
	want, wantErr := ref(bytes.Clone(body))
	scratch := bytes.Clone(body)
	got, err := decode(scratch)
	for i := range scratch {
		scratch[i] = '#'
	}
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("%s %q: error %v, encoding/json says %v", what, body, err, wantErr)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%s %q: decoded %#v, encoding/json decodes %#v", what, body, got, want)
	}
}

// TestWireJSONDecodeSeeds replays both differentials' seeds by name, so a
// failing shape is easy to spot without the fuzz engine.
func TestWireJSONDecodeSeeds(t *testing.T) {
	for _, s := range wireRequestSeeds {
		checkSameDecode(t, "convert request", []byte(s), DecodeConvertRequestJSON, decodeStrict[ConvertRequest])
		checkSameDecode(t, "batch request", []byte(s), DecodeBatchRequestJSON, decodeStrict[BatchRequest])
	}
	for _, s := range wireResponseSeeds {
		checkSameDecode(t, "convert response", []byte(s), DecodeConvertResponseJSON, decodeResponseFallback[ConvertResponse])
		checkSameDecode(t, "batch response", []byte(s), DecodeBatchResponseJSON, decodeResponseFallback[BatchResponse])
	}
	// The real bodies round-trip through the scanner path.
	corpus, plans := corpusPlans(t, 20)
	var recs []ConvertRequest
	var results []pipeline.Result
	for i, p := range plans {
		req := ConvertRequest{Dialect: corpus[i].Dialect, Serialized: corpus[i].Serialized}
		recs = append(recs, req)
		results = append(results, pipeline.Result{Plan: p})
		checkSameDecode(t, "convert request", AppendConvertRequestJSON(nil, req), DecodeConvertRequestJSON, decodeStrict[ConvertRequest])
		checkSameDecode(t, "convert response", appendConvertBody(nil, req.Dialect, p), DecodeConvertResponseJSON, decodeResponseFallback[ConvertResponse])
	}
	checkSameDecode(t, "batch request", AppendBatchRequestJSON(nil, BatchRequest{Records: recs}), DecodeBatchRequestJSON, decodeStrict[BatchRequest])
	checkSameDecode(t, "batch response", appendBatchBody(nil, results, batchBody{converted: 20, elapsedSeconds: 0.5, plansPerSec: 40}),
		DecodeBatchResponseJSON, decodeResponseFallback[BatchResponse])
}

// TestWireJSONCanonicalDecodeAllocs caps the scanner path's allocations:
// one copy of a request body, one per string with escapes (every EXPLAIN
// text has newlines) and the records slice's growth; and one copy of
// each field a response decode keeps.
func TestWireJSONCanonicalDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation guard: race instrumentation adds allocations")
	}
	corpus, plans := corpusPlans(t, 8)
	var recs []ConvertRequest
	for _, rec := range corpus {
		recs = append(recs, ConvertRequest{Dialect: rec.Dialect, Serialized: rec.Serialized})
	}
	results := []pipeline.Result{{Plan: plans[0]}, {Err: errors.New("boom")}}
	cases := []struct {
		name string
		max  float64
		body []byte
		run  func([]byte) error
	}{
		{"convert request", 2, AppendConvertRequestJSON(nil, recs[0]), func(b []byte) error {
			_, err := DecodeConvertRequestJSON(b)
			return err
		}},
		// 1 body copy + 8 escaped texts + 4 growths of an 8-record slice.
		{"batch request", 13, AppendBatchRequestJSON(nil, BatchRequest{Records: recs}), func(b []byte) error {
			_, err := DecodeBatchRequestJSON(b)
			return err
		}},
		// dialect, plan, fingerprint64, fingerprint.
		{"convert response", 4, appendConvertBody(nil, "postgresql", plans[0]), func(b []byte) error {
			_, err := DecodeConvertResponseJSON(b)
			return err
		}},
		// 2 growths of the results slice, 1 plan, 1 error text.
		{"batch response", 4, appendBatchBody(nil, results, batchBody{converted: 1}), func(b []byte) error {
			_, err := DecodeBatchResponseJSON(b)
			return err
		}},
	}
	for _, c := range cases {
		if err := c.run(c.body); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if avg := testing.AllocsPerRun(50, func() { _ = c.run(c.body) }); avg > c.max {
			t.Errorf("%s: %v allocs/op, want at most %v", c.name, avg, c.max)
		}
	}
}

// TestServeBodyReadWhole pins the one behaviour change of reading bodies
// whole: a body over MaxBodyBytes gets 413 even when its first JSON value
// ends well inside the limit.
func TestServeBodyReadWhole(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxBodyBytes: 1 << 10})
	small := AppendConvertRequestJSON(nil, ConvertRequest{Dialect: "postgresql", Serialized: pgPlan})
	for _, path := range []string{"/v1/convert", "/v1/fingerprint"} {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(small))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: small body status = %d, want 200", path, resp.StatusCode)
		}
		padded := append(bytes.Clone(small), bytes.Repeat([]byte(" "), 2<<10)...)
		resp, err = http.Post(ts.URL+path, "application/json", bytes.NewReader(padded))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: padded body status = %d, want 413", path, resp.StatusCode)
		}
	}
}

// FuzzBinaryWire drives the binary wire decoders with arbitrary bytes:
// none may panic, every failure wraps ErrWire, and every success
// re-encodes to exactly the input bytes.
func FuzzBinaryWire(f *testing.F) {
	req := ConvertRequest{Dialect: "postgresql", Serialized: pgPlan}
	f.Add(AppendBinaryConvertRequest(nil, req))
	f.Add(AppendBinaryBatchRequest(nil, BatchRequest{Records: []ConvertRequest{req, {}}}))
	f.Add(AppendBinaryConvertResponse(nil, BinaryConvertResponse{Dialect: "mysql", Fingerprint64: 7, PlanBlob: []byte("blob")}))
	f.Add(AppendBinaryBatchResponse(nil, BinaryBatchResponse{
		Results:   []BinaryBatchItem{{PlanBlob: []byte("blob")}, {Error: "boom"}, {}},
		Converted: 2, Errors: 1, DeadlineExceeded: true, ElapsedSeconds: 0.25, PlansPerSec: 8,
	}))
	// Forms the encoder never writes: a non-minimal varint, and a batch
	// item tagged as an error with no text.
	f.Add([]byte{0x80, 0x00})
	f.Add(append([]byte{1, wireItemError, 0, 0, 0, 0}, make([]byte, 16)...))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		check := func(what string, reencode []byte, err error) {
			if err != nil {
				if !errors.Is(err, ErrWire) {
					t.Fatalf("%s: error %v does not wrap ErrWire", what, err)
				}
				return
			}
			if !bytes.Equal(reencode, data) {
				t.Fatalf("%s: %x re-encodes to %x", what, data, reencode)
			}
		}
		cr, err := DecodeBinaryConvertRequest(data)
		check("convert request", AppendBinaryConvertRequest(nil, cr), err)
		br, err := DecodeBinaryBatchRequest(data)
		check("batch request", AppendBinaryBatchRequest(nil, br), err)
		cresp, err := DecodeBinaryConvertResponse(data)
		check("convert response", AppendBinaryConvertResponse(nil, cresp), err)
		bresp, err := DecodeBinaryBatchResponse(data)
		check("batch response", AppendBinaryBatchResponse(nil, bresp), err)
	})
}

// BenchmarkServeWire measures the JSON wire end to end inside the
// handler, without a network: body read and decode, conversion (or a
// cache hit), response build and write.
//
//	go test -run=NONE -bench=ServeWire -benchmem ./internal/serve
func BenchmarkServeWire(b *testing.B) {
	corpus, _ := corpusPlans(b, 64)
	var recs []ConvertRequest
	for _, rec := range corpus[:32] {
		recs = append(recs, ConvertRequest{Dialect: rec.Dialect, Serialized: rec.Serialized})
	}
	run := func(b *testing.B, s *Server, path string, body func(i int) []byte) {
		b.ReportAllocs()
		h := s.Handler()
		for i := 0; i < b.N; i++ {
			r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body(i)))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, r)
			if w.Code != http.StatusOK {
				b.Fatalf("%s: status %d: %s", path, w.Code, w.Body)
			}
		}
	}
	// Cache off: every convert pays the full wire and conversion path.
	bodies := make([][]byte, len(corpus))
	for i, rec := range corpus {
		bodies[i] = AppendConvertRequestJSON(nil, ConvertRequest{Dialect: rec.Dialect, Serialized: rec.Serialized})
	}
	b.Run("convert-json", func(b *testing.B) {
		run(b, New(Options{CacheSize: -1}), "/v1/convert", func(i int) []byte { return bodies[i%len(bodies)] })
	})
	batch := AppendBatchRequestJSON(nil, BatchRequest{Records: recs})
	b.Run("batch-json", func(b *testing.B) {
		run(b, New(Options{Workers: 1}), "/v1/batch-convert", func(int) []byte { return batch })
	})
	b.Run("convert-hit", func(b *testing.B) {
		run(b, New(Options{}), "/v1/convert", func(int) []byte { return bodies[0] })
	})
}

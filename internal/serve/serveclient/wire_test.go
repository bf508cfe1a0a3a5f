package serveclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"

	"uplan/internal/serve"
)

// errClose is the failure closeFailing's body reports on Close.
var errClose = errors.New("body close failed")

// closeFailing is a RoundTripper answering every request with a fixed
// 200 body whose Close fails, and recording the request bodies it saw.
type closeFailing struct {
	body     string
	requests [][]byte
}

func (rt *closeFailing) RoundTrip(r *http.Request) (*http.Response, error) {
	var req []byte
	if r.Body != nil {
		req, _ = io.ReadAll(r.Body)
		r.Body.Close()
	}
	rt.requests = append(rt.requests, req)
	return &http.Response{
		StatusCode:    http.StatusOK,
		Header:        http.Header{"Content-Type": {"application/json"}},
		Body:          failingCloser{strings.NewReader(rt.body)},
		ContentLength: int64(len(rt.body)),
		Request:       r,
	}, nil
}

type failingCloser struct{ io.Reader }

func (failingCloser) Close() error { return errClose }

// TestClientReportsBodyCloseFailure pins the attempt's named result: a
// response body whose Close fails fails the call instead of being
// dropped, on the JSON and the binary paths alike.
func TestClientReportsBodyCloseFailure(t *testing.T) {
	rt := &closeFailing{body: `{"dialect":"postgresql","plan":{},"fingerprint64":"1","fingerprint":"ab"}`}
	c := New("http://service.invalid", Options{HTTPClient: &http.Client{Transport: rt}, MaxRetries: -1})
	if _, err := c.Convert(context.Background(), "postgresql", "plan"); !errors.Is(err, errClose) {
		t.Errorf("Convert err = %v, want the body close failure", err)
	}
	if _, err := c.Healthy(context.Background()); !errors.Is(err, errClose) {
		t.Errorf("Healthy err = %v, want the body close failure", err)
	}
	if _, err := c.ConvertBinary(context.Background(), "postgresql", "plan", nil); !errors.Is(err, errClose) {
		t.Errorf("ConvertBinary err = %v, want the body close failure", err)
	}
}

// TestClientJSONWireBytes checks both directions of the one-pass JSON
// wire against encoding/json: the request bodies Convert and BatchConvert
// send are json.Marshal's bytes, and the responses decode to what
// json.Decoder decodes, plan bytes exactly as received.
func TestClientJSONWireBytes(t *testing.T) {
	ctx := context.Background()
	convertBody := `{"dialect":"postgresql","plan":{"source":"postgresql","tree":{"operation":{"category":"Producer","name":"Full Table Scan"}}},"fingerprint64":"42","fingerprint":"0123"}`
	rt := &closeFailing{body: convertBody}
	c := New("http://service.invalid", Options{HTTPClient: &http.Client{Transport: rt}, MaxRetries: -1})
	if _, err := c.Convert(ctx, "postgresql", "Seq Scan on t0 <x> & \"y\"\n\u2028"); !errors.Is(err, errClose) {
		t.Fatalf("Convert err = %v", err)
	}
	want, _ := json.Marshal(serve.ConvertRequest{Dialect: "postgresql", Serialized: "Seq Scan on t0 <x> & \"y\"\n\u2028"})
	if !bytes.Equal(rt.requests[0], want) {
		t.Errorf("convert request body %s, want %s", rt.requests[0], want)
	}

	// A transport whose bodies close cleanly, for the decode checks.
	ok := okTransport{body: convertBody}
	c = New("http://service.invalid", Options{HTTPClient: &http.Client{Transport: &ok}, MaxRetries: -1})
	resp, err := c.Convert(ctx, "postgresql", "plan")
	if err != nil {
		t.Fatal(err)
	}
	var ref serve.ConvertResponse
	if err := json.Unmarshal([]byte(convertBody), &ref); err != nil {
		t.Fatal(err)
	}
	if resp.Dialect != ref.Dialect || !bytes.Equal(resp.Plan, ref.Plan) ||
		resp.Fingerprint64 != ref.Fingerprint64 || resp.Fingerprint != ref.Fingerprint {
		t.Errorf("decoded %+v, want %+v", resp, ref)
	}

	records := []serve.ConvertRequest{{Dialect: "mysql", Serialized: "-> Table scan on t1\n"}, {Dialect: "tidb"}}
	ok = okTransport{body: `{"results":[{"plan":{"source":"mysql"}},{"error":"convert: tidb: empty plan"}],"converted":1,"errors":1,"elapsed_seconds":0.00125,"plans_per_sec":800}`}
	batch, err := c.BatchConvert(ctx, records)
	if err != nil {
		t.Fatal(err)
	}
	want, _ = json.Marshal(serve.BatchRequest{Records: records})
	if !bytes.Equal(ok.request, want) {
		t.Errorf("batch request body %s, want %s", ok.request, want)
	}
	var refBatch serve.BatchResponse
	if err := json.Unmarshal([]byte(ok.body), &refBatch); err != nil {
		t.Fatal(err)
	}
	if got, _ := json.Marshal(batch); !bytes.Equal(got, mustMarshal(t, refBatch)) {
		t.Errorf("decoded batch %s, want %s", got, mustMarshal(t, refBatch))
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// okTransport answers every request with body and records the last
// request body.
type okTransport struct {
	body    string
	request []byte
}

func (rt *okTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	rt.request, _ = io.ReadAll(r.Body)
	r.Body.Close()
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{},
		Body:       io.NopCloser(strings.NewReader(rt.body)),
		// Unknown length: the read must grow its buffer on its own.
		ContentLength: -1,
		Request:       r,
	}, nil
}

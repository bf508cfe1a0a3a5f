package serve

// The JSON wire of /v1/convert and /v1/batch-convert, one pass per body
// on both ends. Bodies are written by appending (the plan through
// core.Plan.AppendJSON, strings through jsontext's encoding/json-
// compatible escaper) and read whole, then scanned once with
// jsontext.Scanner. The bytes are exactly what json.Marshal writes, and
// a decoded value is exactly what encoding/json decodes:
//
//   - A body in the canonical shape — exact-case keys, string fields
//     holding valid UTF-8 strings, numbers and booleans where the struct
//     has them, no other keys, and each array field at most once — is
//     decoded by the scanner. (A repeated scalar field is fine: the last
//     one wins on both paths. A repeated array makes encoding/json merge
//     the two element by element.)
//   - Any other body goes to encoding/json over the same bytes. That keeps
//     case-folded keys, null, duplicate-key merging, U+FFFD coercion,
//     unknown-field handling and every error text unchanged.
//
// Like json.Decoder.Decode, both paths ignore bytes after the first value.

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"
	"unsafe"

	"uplan/internal/core"
	"uplan/internal/jsontext"
	"uplan/internal/pipeline"
)

// errOffShape stops a scan that met a body outside the canonical shape;
// the caller then decodes with encoding/json.
var errOffShape = errors.New("serve: JSON body off the canonical shape")

// ReadBody reads r to EOF into dst's storage and returns the filled
// slice. size, when positive, is the expected length (a Content-Length),
// and dst grows to hold it before the first read, so a body whose length
// is known is read without regrowing.
func ReadBody(dst []byte, r io.Reader, size int64) ([]byte, error) {
	dst = dst[:0]
	if size > 0 && int64(cap(dst)) <= size {
		// One spare byte lets the read that reports EOF land without
		// growing the buffer.
		dst = make([]byte, 0, size+1)
	}
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// ------------------------------------------------------------ requests

// AppendConvertRequestJSON appends req's JSON body, the bytes
// json.Marshal(req) writes.
//
//uplan:hotpath
func AppendConvertRequestJSON(dst []byte, req ConvertRequest) []byte {
	dst = append(dst, `{"dialect":`...)
	dst = jsontext.AppendString(dst, req.Dialect)
	dst = append(dst, `,"serialized":`...)
	dst = jsontext.AppendString(dst, req.Serialized)
	return append(dst, '}')
}

// AppendBatchRequestJSON appends req's JSON body, the bytes
// json.Marshal(req) writes (a nil Records is null).
//
//uplan:hotpath
func AppendBatchRequestJSON(dst []byte, req BatchRequest) []byte {
	dst = append(dst, `{"records":`...)
	if req.Records == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, r := range req.Records {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = AppendConvertRequestJSON(dst, r)
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// DecodeConvertRequestJSON decodes a convert request body the way
// json.Decoder with DisallowUnknownFields does. The result shares no
// memory with body, so body may be a reused buffer: the strings of a
// canonical body are substrings of one copy of it.
//
//uplan:hotpath
func DecodeConvertRequestJSON(body []byte) (ConvertRequest, error) {
	sc := jsontext.NewScanner(string(body))
	var req ConvertRequest
	if scanConvertRequest(&sc, &req) == nil {
		return req, nil
	}
	return decodeStrict[ConvertRequest](body)
}

// DecodeBatchRequestJSON is DecodeConvertRequestJSON for batch bodies.
//
//uplan:hotpath
func DecodeBatchRequestJSON(body []byte) (BatchRequest, error) {
	sc := jsontext.NewScanner(string(body))
	var req BatchRequest
	err := sc.ScanObject(func(key string) error {
		// A second records array is off the shape.
		if key != "records" || req.Records != nil || sc.Peek() != '[' {
			return errOffShape
		}
		req.Records = []ConvertRequest{}
		return sc.ScanArray(func(int) error {
			req.Records = append(req.Records, ConvertRequest{})
			return scanConvertRequest(&sc, &req.Records[len(req.Records)-1])
		})
	})
	if err == nil {
		return req, nil
	}
	return decodeStrict[BatchRequest](body)
}

// scanConvertRequest scans one canonical ConvertRequest object into req.
//
//uplan:hotpath
func scanConvertRequest(sc *jsontext.Scanner, req *ConvertRequest) error {
	return sc.ScanObject(func(key string) error {
		var dst *string
		switch key {
		case "dialect":
			dst = &req.Dialect
		case "serialized":
			dst = &req.Serialized
		default:
			return errOffShape
		}
		s, err := scanValidString(sc)
		*dst = s
		return err
	})
}

// scanValidString scans a string value that encoding/json would decode
// to the same string: present, and valid UTF-8 (encoding/json rewrites
// invalid bytes to U+FFFD; the scanner passes them through).
func scanValidString(sc *jsontext.Scanner) (string, error) {
	if sc.Peek() != '"' {
		return "", errOffShape
	}
	s, err := sc.ScanString()
	if err != nil {
		return "", err
	}
	if !utf8.ValidString(s) {
		return "", errOffShape
	}
	return s, nil
}

// decodeStrict is the encoding/json request decode the service always
// had, over a body already read: json.Decoder with DisallowUnknownFields.
func decodeStrict[T any](body []byte) (T, error) {
	var v T
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&v)
	return v, err
}

// ----------------------------------------------------------- responses

// appendConvertBody appends the convert response JSON for p, the bytes
// json.Marshal writes for the ConvertResponse carrying p.MarshalJSON().
//
//uplan:hotpath
func appendConvertBody(dst []byte, dialect string, p *core.Plan) []byte {
	dst = append(dst, `{"dialect":`...)
	dst = jsontext.AppendString(dst, dialect)
	dst = append(dst, `,"plan":`...)
	dst = p.AppendJSON(dst)
	dst = append(dst, `,"fingerprint64":"`...)
	dst = strconv.AppendUint(dst, p.Fingerprint64(core.FingerprintOptions{}), 10)
	dst = append(dst, `","fingerprint":"`...)
	fp := p.FingerprintBytes(core.FingerprintOptions{})
	dst = hex.AppendEncode(dst, fp[:16])
	return append(dst, `"}`...)
}

// batchBody is the aggregate part of a BatchResponse.
type batchBody struct {
	converted        int
	deadlineExceeded bool
	elapsedSeconds   float64
	plansPerSec      float64
}

// appendBatchBody appends the batch response JSON for results, the bytes
// json.Marshal writes for the BatchResponse with one BatchItem per result
// (a plan, or the error's text). Errors counts the error slots, not the
// conversion errors: records a deadline cut off before a worker claimed
// them carry the context's error in their slot too.
//
//uplan:hotpath
func appendBatchBody(dst []byte, results []pipeline.Result, agg batchBody) []byte {
	errs := 0
	dst = append(dst, `{"results":[`...)
	for i := range results {
		if i > 0 {
			dst = append(dst, ',')
		}
		res := &results[i]
		if res.Err != nil {
			errs++
			if msg := res.Err.Error(); msg != "" {
				dst = append(dst, `{"error":`...)
				dst = jsontext.AppendString(dst, msg)
				dst = append(dst, '}')
			} else {
				dst = append(dst, "{}"...)
			}
			continue
		}
		dst = append(dst, `{"plan":`...)
		dst = res.Plan.AppendJSON(dst)
		dst = append(dst, '}')
	}
	dst = append(dst, `],"converted":`...)
	dst = strconv.AppendInt(dst, int64(agg.converted), 10)
	dst = append(dst, `,"errors":`...)
	dst = strconv.AppendInt(dst, int64(errs), 10)
	if agg.deadlineExceeded {
		dst = append(dst, `,"deadline_exceeded":true`...)
	}
	dst = append(dst, `,"elapsed_seconds":`...)
	dst = jsontext.AppendFloat(dst, agg.elapsedSeconds)
	dst = append(dst, `,"plans_per_sec":`...)
	dst = jsontext.AppendFloat(dst, agg.plansPerSec)
	return append(dst, '}')
}

// DecodeConvertResponseJSON decodes a convert response body the way
// json.Decoder does. The result shares no memory with body, so body may
// be a reused buffer; Plan holds the plan's bytes exactly as received.
//
//uplan:hotpath
func DecodeConvertResponseJSON(body []byte) (ConvertResponse, error) {
	sc := jsontext.NewScanner(bytesView(body))
	var resp ConvertResponse
	err := sc.ScanObject(func(key string) error {
		var dst *string
		switch key {
		case "dialect":
			dst = &resp.Dialect
		case "plan":
			raw, err := scanRaw(&sc)
			resp.Plan = raw
			return err
		case "fingerprint64":
			dst = &resp.Fingerprint64
		case "fingerprint":
			dst = &resp.Fingerprint
		default:
			return errOffShape
		}
		s, err := scanValidString(&sc)
		*dst = strings.Clone(s)
		return err
	})
	if err == nil {
		return resp, nil
	}
	return decodeResponseFallback[ConvertResponse](body)
}

// DecodeBatchResponseJSON is DecodeConvertResponseJSON for batch bodies.
//
//uplan:hotpath
func DecodeBatchResponseJSON(body []byte) (BatchResponse, error) {
	sc := jsontext.NewScanner(bytesView(body))
	var resp BatchResponse
	err := sc.ScanObject(func(key string) error {
		switch key {
		case "results":
			return scanBatchItems(&sc, &resp)
		case "converted":
			return scanInt(&sc, &resp.Converted)
		case "errors":
			return scanInt(&sc, &resp.Errors)
		case "deadline_exceeded":
			return scanBool(&sc, &resp.DeadlineExceeded)
		case "elapsed_seconds":
			return scanFloat(&sc, &resp.ElapsedSeconds)
		case "plans_per_sec":
			return scanFloat(&sc, &resp.PlansPerSec)
		}
		return errOffShape
	})
	if err == nil {
		return resp, nil
	}
	return decodeResponseFallback[BatchResponse](body)
}

// scanBatchItems scans the results array of a batch response; a second
// results array is off the shape.
//
//uplan:hotpath
func scanBatchItems(sc *jsontext.Scanner, resp *BatchResponse) error {
	if resp.Results != nil || sc.Peek() != '[' {
		return errOffShape
	}
	resp.Results = []BatchItem{}
	return sc.ScanArray(func(int) error {
		resp.Results = append(resp.Results, BatchItem{})
		it := &resp.Results[len(resp.Results)-1]
		return sc.ScanObject(func(key string) error {
			switch key {
			case "plan":
				raw, err := scanRaw(sc)
				it.Plan = raw
				return err
			case "error":
				s, err := scanValidString(sc)
				it.Error = strings.Clone(s)
				return err
			}
			return errOffShape
		})
	})
}

// scanRaw scans any value and returns a copy of its bytes, as
// json.RawMessage decodes (null included).
func scanRaw(sc *jsontext.Scanner) (json.RawMessage, error) {
	raw, err := sc.ScanRaw()
	if err != nil {
		return nil, err
	}
	return json.RawMessage(raw), nil
}

// scanInt scans a number into an int field the way encoding/json does:
// integer literals only.
func scanInt(sc *jsontext.Scanner, dst *int) error {
	lit, err := sc.ScanNumberLiteral()
	if err != nil {
		return err
	}
	n, err := strconv.ParseInt(lit, 10, 64)
	if err != nil {
		return errOffShape
	}
	*dst = int(n)
	return nil
}

// scanFloat scans a number into a float64 field; out-of-range literals,
// which encoding/json rejects, go to the fallback.
func scanFloat(sc *jsontext.Scanner, dst *float64) error {
	lit, err := sc.ScanNumberLiteral()
	if err != nil {
		return err
	}
	f, err := strconv.ParseFloat(lit, 64)
	if err != nil {
		return errOffShape
	}
	*dst = f
	return nil
}

// scanBool scans true or false into a bool field.
func scanBool(sc *jsontext.Scanner, dst *bool) error {
	switch sc.Peek() {
	case 't':
		*dst = true
		return sc.ScanLiteral("true")
	case 'f':
		*dst = false
		return sc.ScanLiteral("false")
	}
	return errOffShape
}

// decodeResponseFallback is the encoding/json response decode the client
// always had, over the bytes already read.
func decodeResponseFallback[T any](body []byte) (T, error) {
	var v T
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&v)
	return v, err
}

// bytesView returns body's bytes as a string without copying. The
// response decoders copy every string and raw value they keep, so the
// view never outlives the call.
func bytesView(body []byte) string {
	return unsafe.String(unsafe.SliceData(body), len(body))
}

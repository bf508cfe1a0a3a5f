package jsontext

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// TestAppendStringMatchesEncodingJSON holds the escaper to json.Marshal
// over edge strings and every single byte and rune class.
func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	cases := []string{
		"", "plain", `<a href="x">&amp;</a>`, "tab\tnl\ncr\r\b\f\x00\x1f\x7f\\\"/",
		"\u2028\u2029", "a\xffb\xc3\x28c\xed\xa0\x80", "é😀\U0010FFFF", "\xf4\x90\x80\x80",
	}
	for b := 0; b < 256; b++ {
		cases = append(cases, string([]byte{byte(b)}), "x"+string([]byte{byte(b)})+"y")
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		buf := make([]byte, r.Intn(24))
		r.Read(buf)
		cases = append(cases, string(buf))
	}
	for _, s := range cases {
		want, _ := json.Marshal(s)
		if got := AppendString([]byte("x"), s); !bytes.Equal(got[1:], want) {
			t.Fatalf("AppendString(%q) = %s, want %s", s, got[1:], want)
		}
	}
}

// TestAppendFloatMatchesEncodingJSON holds the float formatter to
// json.Marshal across both notations and their boundaries.
func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	cases := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1.5, 123456789.125, 1e-6, 9.99999e-7, 1e-7,
		1e20, 1e21, 999999999999999900000, 5e-324, math.MaxFloat64, -math.SmallestNonzeroFloat64,
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		cases = append(cases, math.Float64frombits(r.Uint64()))
	}
	for _, f := range cases {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		want, _ := json.Marshal(f)
		if got := AppendFloat(nil, f); !bytes.Equal(got, want) {
			t.Fatalf("AppendFloat(%v) = %s, want %s", f, got, want)
		}
	}
}

// TestScanStringEscapesAllocateOnce pins the escape path's single
// allocation: the builder is sized to the string's raw length.
func TestScanStringEscapesAllocateOnce(t *testing.T) {
	in := `"Seq Scan on t0\n  Filter: (c0 \u003c 100)\n` + string(bytes.Repeat([]byte(`  -> \"x\"\n`), 200)) + `"`
	if avg := testing.AllocsPerRun(100, func() {
		sc := NewScanner(in)
		if _, err := sc.ScanString(); err != nil {
			t.Fatal(err)
		}
	}); avg != 1 {
		t.Errorf("escaped ScanString: %v allocs/op, want 1", avg)
	}
}

package core_test

import (
	"bytes"
	"math"
	"testing"

	"uplan/internal/bench"
	"uplan/internal/convert"
	"uplan/internal/core"
	"uplan/internal/dbms"
	"uplan/internal/explain"
	"uplan/internal/oracle"
	"uplan/internal/sqlancer"
)

// checkAppendJSON holds AppendJSON, MarshalJSON and MarshalJSONIndent to
// the reflective reference encoder, byte for byte.
func checkAppendJSON(t *testing.T, label string, p *core.Plan) {
	t.Helper()
	want, err := core.MarshalJSONReference(p)
	if err != nil {
		t.Fatalf("%s: reference marshal: %v", label, err)
	}
	if got := p.AppendJSON(nil); !bytes.Equal(got, want) {
		t.Fatalf("%s: AppendJSON diverges\n got: %s\nwant: %s", label, got, want)
	}
	// Appending after existing bytes must leave them alone.
	if got := p.AppendJSON([]byte("prefix")); !bytes.Equal(got, append([]byte("prefix"), want...)) {
		t.Fatalf("%s: AppendJSON clobbers its destination prefix", label)
	}
	if got, err := p.MarshalJSON(); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("%s: MarshalJSON diverges (err %v)", label, err)
	}
	wantIndent, err := core.MarshalJSONIndentReference(p)
	if err != nil {
		t.Fatalf("%s: reference indent: %v", label, err)
	}
	if got, err := p.MarshalJSONIndent(); err != nil || !bytes.Equal(got, wantIndent) {
		t.Fatalf("%s: MarshalJSONIndent diverges (err %v)\n got: %s\nwant: %s", label, err, got, wantIndent)
	}
}

// TestAppendJSONMatchesReflectiveCorpus covers the nine-dialect benchmark
// corpus at four seeds.
func TestAppendJSONMatchesReflectiveCorpus(t *testing.T) {
	n := 0
	for seed := int64(0); seed < 4; seed++ {
		corpus, err := bench.Corpus(seed)
		if err != nil {
			t.Fatal(err)
		}
		for i, rec := range corpus {
			p, err := convert.Convert(rec.Dialect, rec.Serialized)
			if err != nil {
				t.Fatalf("seed %d record %d (%s): %v", seed, i, rec.Dialect, err)
			}
			checkAppendJSON(t, rec.Dialect, p)
			n++
		}
	}
	if n < 1000 {
		t.Fatalf("checked %d corpus plans, want at least 1000", n)
	}
}

// TestAppendJSONMatchesReflectiveEngines covers sqlancer queries planned
// by all nine engines, in every non-graph format each supports.
func TestAppendJSONMatchesReflectiveEngines(t *testing.T) {
	for _, name := range dbms.Names() {
		e, err := dbms.New(name)
		if err != nil {
			t.Fatal(err)
		}
		gen := sqlancer.New(oracle.DeriveSeed(3, name, "appendjson"))
		if err := oracle.ApplySchema(e, gen, 3, 20); err != nil {
			t.Fatal(err)
		}
		n := 0
		for q := 0; q < 12; q++ {
			query := gen.Query()
			for _, f := range dbms.Formats[name] {
				if f == explain.FormatGraph {
					continue
				}
				text, err := e.Explain(query, f)
				if err != nil {
					continue
				}
				p, err := convert.Convert(name, text)
				if err != nil {
					t.Fatalf("%s: convert: %v", name, err)
				}
				checkAppendJSON(t, name, p)
				n++
			}
		}
		if n == 0 {
			t.Fatalf("%s: no plan checked", name)
		}
	}
}

// TestAppendJSONEdgeValues covers the encoder's corner cases: non-finite
// and boundary floats, HTML-sensitive and line-separator characters,
// invalid UTF-8, and the omitempty members.
func TestAppendJSONEdgeValues(t *testing.T) {
	node := core.NewNode(core.Producer, "Scan <t0> & \u2028\u2029 \xff\xfe").
		AddProperty(core.Cardinality, "nan", core.Num(math.NaN())).
		AddProperty(core.Cardinality, "+inf", core.Num(math.Inf(1))).
		AddProperty(core.Cardinality, "-inf", core.Num(math.Inf(-1))).
		AddProperty(core.Cost, "small", core.Num(1e-7)).
		AddProperty(core.Cost, "large", core.Num(1e21)).
		AddProperty(core.Cost, "below-large", core.Num(999999999999999900000)).
		AddProperty(core.Cost, "neg-zero", core.Num(math.Copysign(0, -1))).
		AddProperty(core.Cost, "tiny", core.Num(5e-324)).
		AddProperty(core.Configuration, "html", core.Str(`<a href="x">&amp;</a>`)).
		AddProperty(core.Configuration, "ctrl", core.Str("tab\there\nnl\r\x00\x1f\\\"")).
		AddProperty(core.Configuration, "bad-utf8", core.Str("a\xc3\x28b\xed\xa0\x80c")).
		AddProperty(core.Status, "t", core.BoolVal(true)).
		AddProperty(core.Status, "f", core.BoolVal(false)).
		AddProperty(core.Status, "null", core.Null()).
		AddProperty(core.PropertyCategory("\u2028"), "", core.Str(""))
	node.AddChild(core.NewNode(core.Join, "Hash Join"), core.NewNode(core.Producer, ""))
	node.Children = append(node.Children, nil)

	propOnly := &core.Plan{Source: "influxdb"}
	propOnly.AddProperty(core.Cardinality, "TotalSeries", core.Num(5))

	cases := map[string]*core.Plan{
		"edge values":         {Source: "postgresql", Root: node},
		"empty source":        {Root: core.NewNode(core.Producer, "Scan")},
		"nil root":            {Source: "mysql"},
		"empty plan":          {},
		"property-only":       propOnly,
		"source <>&":          {Source: "<x>&\u2028"},
		"plan-level props":    {Root: node, Properties: node.Properties},
		"childless, propless": {Source: "s", Root: &core.Node{}},
	}
	for label, p := range cases {
		checkAppendJSON(t, label, p)
	}
}

// TestAppendJSONZeroAllocs guards the hot path: appending into a buffer
// with room allocates nothing.
func TestAppendJSONZeroAllocs(t *testing.T) {
	if core.RaceEnabled {
		t.Skip("allocation guard: race instrumentation adds allocations")
	}
	corpus, err := bench.Corpus(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range corpus[:18] {
		p, err := convert.Convert(rec.Dialect, rec.Serialized)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 0, 2*len(p.AppendJSON(nil)))
		if avg := testing.AllocsPerRun(50, func() { buf = p.AppendJSON(buf[:0]) }); avg != 0 {
			t.Errorf("%s: AppendJSON into a presized buffer: %v allocs/op, want 0", rec.Dialect, avg)
		}
	}
}

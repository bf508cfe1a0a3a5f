package convert_test

import (
	"slices"
	"testing"

	"uplan/internal/convert"
	"uplan/internal/core"
	"uplan/internal/dbms"
	"uplan/internal/explain"
)

// fuzzFormats are the non-JSON EXPLAIN formats, the ones FuzzJSONScan
// does not reach.
var fuzzFormats = []explain.Format{explain.FormatText, explain.FormatTable, explain.FormatXML, explain.FormatYAML}

// FuzzConvert drives every dialect's converter with arbitrary input,
// seeded with each engine's TEXT, TABLE, XML and YAML EXPLAIN output.
// For any input and any converter: no panic; a success carries a plan
// with a non-nil Root (InfluxDB's property-only plans excepted, see
// below); and converting the same input twice gives equal
// fingerprints, so conversion is deterministic. The seeds run on every
// `go test`; `go test -fuzz=FuzzConvert ./internal/convert` explores
// further.
func FuzzConvert(f *testing.F) {
	queries := []string{
		"SELECT t0.c2, COUNT(*) FROM t0 INNER JOIN t1 ON t0.c0 = t1.c0 WHERE t0.c1 > 5 GROUP BY t0.c2",
		"SELECT c0 FROM t0 WHERE c1 < 20 ORDER BY c0 LIMIT 2",
	}
	for _, name := range dbms.Names() {
		e := dbms.MustNew(name)
		for _, s := range []string{
			"CREATE TABLE t0 (c0 INT PRIMARY KEY, c1 INT, c2 TEXT)",
			"CREATE TABLE t1 (c0 INT, v TEXT)",
			"INSERT INTO t0 VALUES (1, 10, 'a'), (2, 20, 'b'), (3, 30, 'a')",
			"INSERT INTO t1 VALUES (1, 'x'), (3, 'y')",
		} {
			if _, err := e.Execute(s); err != nil {
				f.Fatalf("%s: seed: %v", name, err)
			}
		}
		if err := e.Analyze(); err != nil {
			f.Fatal(err)
		}
		for _, format := range e.SupportedFormats() {
			if !slices.Contains(fuzzFormats, format) {
				continue
			}
			for _, q := range queries {
				out, err := e.Explain(q, format)
				if err != nil {
					f.Fatalf("%s %s: explain: %v", name, format, err)
				}
				f.Add(out)
			}
		}
	}
	// Documents with plan properties but no operator tree, which every
	// converter but InfluxDB's must reject.
	for _, s := range []string{
		"Planning Time: 0.1 ms\n",
		`[{"Planning Time": 0.1}]`,
		`{"query_block": {"cost_info": {"query_cost": "1.00"}}}`,
		`{"database accesses": 3}`,
		"Planner COST\nTotal database accesses: 4\n",
	} {
		f.Add(s)
	}

	convs := make([]convert.Converter, 0, len(convert.Dialects()))
	for _, d := range convert.Dialects() {
		c, err := convert.Cached(d)
		if err != nil {
			f.Fatal(err)
		}
		convs = append(convs, c)
	}
	opts := core.FingerprintOptions{
		IncludeConfiguration:       true,
		IncludeConfigurationValues: true,
		IncludePlanProperties:      true,
	}
	f.Fuzz(func(t *testing.T, s string) {
		for _, c := range convs {
			first, err := c.Convert(s)
			if err != nil {
				continue
			}
			if first == nil {
				t.Fatalf("%s: nil plan and nil error for %q", c.Dialect(), s)
			}
			// InfluxDB reports no operations, so its plans are property-
			// only by design: a success has properties and no Root.
			if c.Dialect() == "influxdb" {
				if first.Root != nil || len(first.Properties) == 0 {
					t.Fatalf("influxdb: success is not a property-only plan for %q", s)
				}
			} else if first.Root == nil {
				t.Fatalf("%s: success without a root for %q", c.Dialect(), s)
			}
			again, err := c.Convert(s)
			if err != nil {
				t.Fatalf("%s: second conversion of %q failed: %v", c.Dialect(), s, err)
			}
			if first.FingerprintBytes(opts) != again.FingerprintBytes(opts) {
				t.Fatalf("%s: two conversions of %q fingerprint differently", c.Dialect(), s)
			}
		}
	})
}

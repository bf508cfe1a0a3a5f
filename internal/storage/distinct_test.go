package storage

import (
	"math"
	"math/rand"
	"testing"

	"uplan/internal/catalog"
	"uplan/internal/datum"
)

// distinctPool holds values whose Keys collide across kinds or differ
// by a hair: 1 vs 1.0, -0 vs 0, NaN payloads, integers past 2^53, and
// strings that spell other kinds' keys.
var distinctPool = []datum.D{
	datum.Null(),
	datum.Int(0), datum.Float(0), datum.Float(math.Copysign(0, -1)),
	datum.Int(1), datum.Float(1), datum.Int(-7), datum.Float(-7), datum.Float(2.5),
	datum.Float(math.NaN()),
	datum.Float(math.Float64frombits(0x7ff8000000000001)),
	datum.Float(math.Float64frombits(0xfff0000000000003)),
	datum.Float(math.Inf(1)), datum.Float(math.Inf(-1)),
	datum.Int(1 << 53), datum.Int(1<<53 + 1), datum.Float(1 << 53),
	datum.Str(""), datum.Str("1"), datum.Str("n1"), datum.Str("b1"), datum.Str("\x00"),
	datum.Bool(true), datum.Bool(false),
}

// keyMapDistinct is the distinct count Analyze used to take: the number
// of different Key strings among the non-NULL values.
func keyMapDistinct(values []datum.D) int {
	seen := map[string]bool{}
	for _, v := range values {
		if !v.IsNull() {
			seen[v.Key()] = true
		}
	}
	return len(seen)
}

func randValues(r *rand.Rand) []datum.D {
	vals := make([]datum.D, r.Intn(40))
	for i := range vals {
		vals[i] = distinctPool[r.Intn(len(distinctPool))]
	}
	return vals
}

// analyzeDistinct loads the values into a one-column table and returns
// the Distinct that Analyze records for it.
func analyzeDistinct(t *testing.T, values []datum.D) int {
	t.Helper()
	db := NewDB()
	tbl, err := db.CreateTable(&catalog.Table{Name: "t", Columns: []catalog.Column{{Name: "c", Type: catalog.TFloat}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range values {
		if _, err := tbl.Insert(Row{v}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Analyze("t"); err != nil {
		t.Fatal(err)
	}
	return db.Schema.Stats("t").Column("c").Distinct
}

// TestAnalyzeDistinctMatchesKeyMap is the property that Analyze's hashed
// distinct count equals the Key-map count it replaced, over generated
// columns drawn from values whose keys collide or nearly collide, with
// NULLs mixed in.
func TestAnalyzeDistinctMatchesKeyMap(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for i := 0; i < 2000; i++ {
		vals := randValues(r)
		if got, want := analyzeDistinct(t, vals), keyMapDistinct(vals); got != want {
			t.Fatalf("Analyze Distinct = %d, Key map says %d, for %v", got, want, vals)
		}
	}
}

// TestCountDistinctForcedCollisions forces every value hash to collide,
// so every count is decided by the KeyEqual check alone.
func TestCountDistinctForcedCollisions(t *testing.T) {
	defer func(h func(datum.D) uint64) { valueHash = h }(valueHash)
	valueHash = func(datum.D) uint64 { return 7 }
	r := rand.New(rand.NewSource(22))
	for i := 0; i < 2000; i++ {
		vals := randValues(r)
		nonNull := vals[:0:0]
		for _, v := range vals {
			if !v.IsNull() {
				nonNull = append(nonNull, v)
			}
		}
		if got, want := countDistinct(nonNull), keyMapDistinct(vals); got != want {
			t.Fatalf("countDistinct = %d under forced collisions, Key map says %d, for %v", got, want, vals)
		}
	}
}

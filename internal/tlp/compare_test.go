package tlp

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"uplan/internal/datum"
	"uplan/internal/exec"
)

// multisetDiffRef and compareResultsRef are the comparisons as they were
// before the hashed fast path: sorted RowKey strings only. The hashed
// path must reproduce their output byte for byte.
func multisetDiffRef(a, b [][]datum.D) string {
	if len(a) != len(b) {
		return fmt.Sprintf("cardinality %d vs %d", len(a), len(b))
	}
	ka, kb := sortedKeysRef(a), sortedKeysRef(b)
	for i := range ka {
		if ka[i] != kb[i] {
			return fmt.Sprintf("row content differs at sorted position %d", i)
		}
	}
	return ""
}

func compareResultsRef(a, b *exec.Result) string {
	if len(a.Rows) != len(b.Rows) {
		return fmt.Sprintf("row counts differ: %d vs %d", len(a.Rows), len(b.Rows))
	}
	ka, kb := sortedKeysRef(a.Rows), sortedKeysRef(b.Rows)
	for i := range ka {
		if ka[i] != kb[i] {
			return fmt.Sprintf("row multisets differ (first at sorted position %d: %s vs %s)",
				i, strings.TrimSpace(ka[i]), strings.TrimSpace(kb[i]))
		}
	}
	return ""
}

func sortedKeysRef(rows [][]datum.D) []string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = datum.RowKey(r)
	}
	sort.Strings(keys)
	return keys
}

// twins groups values whose RowKey encodings are equal; a generated
// "equal" multiset swaps values for random twins of the same group.
var twins = [][]datum.D{
	{datum.Null()},
	{datum.Int(0), datum.Float(0)},
	{datum.Float(math.Copysign(0, -1))},
	{datum.Int(1), datum.Float(1)},
	{datum.Int(-7), datum.Float(-7)},
	{datum.Float(2.5)},
	{datum.Float(math.NaN()), datum.Float(math.Float64frombits(0x7ff8000000000001)), datum.Float(math.Float64frombits(0xfff0000000000003))},
	{datum.Float(math.Inf(1))},
	{datum.Float(math.Inf(-1))},
	{datum.Int(1 << 53), datum.Int(1<<53 + 1), datum.Float(1 << 53)},
	{datum.Str("")},
	{datum.Str("1")},
	{datum.Str("n1")},
	{datum.Str("2:n1")},
	{datum.Str("1:s")},
	{datum.Str("a:b:3")},
	{datum.Bool(true)},
	{datum.Bool(false)},
}

func randRow(r *rand.Rand, width int) []datum.D {
	row := make([]datum.D, width)
	for i := range row {
		g := twins[r.Intn(len(twins))]
		row[i] = g[r.Intn(len(g))]
	}
	return row
}

// twinOf returns a value with the same key as d, picked at random.
func twinOf(r *rand.Rand, d datum.D) datum.D {
	for _, g := range twins {
		for _, v := range g {
			if v.Key() == d.Key() {
				return g[r.Intn(len(g))]
			}
		}
	}
	return d
}

// genPair returns two multisets that are equal (a twin-substituted
// shuffle) or, when perturb is set, usually unequal.
func genPair(r *rand.Rand, perturb bool) (a, b [][]datum.D) {
	n := r.Intn(14)
	width := 1 + r.Intn(3)
	for i := 0; i < n; i++ {
		row := randRow(r, width)
		a = append(a, row)
		if r.Intn(4) == 0 {
			a = append(a, row) // duplicates
			i++
		}
	}
	for _, row := range a {
		tw := make([]datum.D, len(row))
		for i, d := range row {
			tw[i] = twinOf(r, d)
		}
		b = append(b, tw)
	}
	r.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	if perturb && len(b) > 0 {
		switch r.Intn(3) {
		case 0:
			b[r.Intn(len(b))] = randRow(r, width)
		case 1:
			b = b[1:]
		default:
			row := b[r.Intn(len(b))]
			row[r.Intn(len(row))] = randRow(r, 1)[0]
		}
	}
	return a, b
}

func checkAgainstRef(t *testing.T, a, b [][]datum.D) {
	t.Helper()
	if got, want := multisetDiff(a, b), multisetDiffRef(a, b); got != want {
		t.Fatalf("multisetDiff(%v, %v) = %q, RowKey path says %q", a, b, got, want)
	}
	ra, rb := &exec.Result{Rows: a}, &exec.Result{Rows: b}
	if got, want := CompareResults(ra, rb), compareResultsRef(ra, rb); got != want {
		t.Fatalf("CompareResults(%v, %v) = %q, RowKey path says %q", a, b, got, want)
	}
}

// TestHashedCompareMatchesRowKeyPath is the differential test of the
// hashed multiset comparison against the RowKey-only comparison, over
// equal and unequal generated multisets with INT/FLOAT twins, signed
// zeros, NaN payloads, NULLs and strings that look like key encodings.
func TestHashedCompareMatchesRowKeyPath(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	equal := 0
	for i := 0; i < 4000; i++ {
		a, b := genPair(r, i%2 == 1)
		if multisetDiffRef(a, b) == "" {
			equal++
		}
		checkAgainstRef(t, a, b)
	}
	if equal < 1500 {
		t.Fatalf("only %d of 4000 generated pairs were equal; the generator lost its equal half", equal)
	}
}

// TestHashedCompareForcedCollisions forces every row hash to collide:
// the pairing then misaligns distinct rows, and the comparison must fall
// back to the RowKey path with identical output.
func TestHashedCompareForcedCollisions(t *testing.T) {
	defer func(h func([]datum.D) uint64) { rowHash = h }(rowHash)
	rowHash = func([]datum.D) uint64 { return 42 }
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 2000; i++ {
		a, b := genPair(r, i%2 == 1)
		checkAgainstRef(t, a, b)
	}
}

// TestEqualCompareAllocs guards the equal-multiset fast path: one
// allocation (the hash array), no RowKey strings.
func TestEqualCompareAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	var a, b [][]datum.D
	for i := 0; i < 12; i++ {
		row := []datum.D{datum.Int(int64(i)), datum.Str(fmt.Sprint("v", i)), datum.Float(float64(i) / 2)}
		a = append(a, row)
		b = append(b, row)
	}
	r.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	ra, rb := &exec.Result{Rows: a}, &exec.Result{Rows: b}
	allocs := testing.AllocsPerRun(100, func() {
		if multisetDiff(a, b) != "" || CompareResults(ra, rb) != "" {
			t.Fatal("equal multisets reported different")
		}
	})
	if allocs > 2 {
		t.Fatalf("equal-multiset compare: %.1f allocs per multisetDiff+CompareResults, want <= 2", allocs)
	}
}

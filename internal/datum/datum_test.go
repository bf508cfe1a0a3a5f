package datum

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCompareNumericCrossKind(t *testing.T) {
	c, ok := Compare(Int(3), Float(3.0))
	if !ok || c != 0 {
		t.Errorf("3 vs 3.0: %d %v", c, ok)
	}
	c, ok = Compare(Int(2), Float(2.5))
	if !ok || c >= 0 {
		t.Errorf("2 vs 2.5: %d %v", c, ok)
	}
}

func TestCompareNulls(t *testing.T) {
	if _, ok := Compare(Null(), Int(1)); ok {
		t.Error("NULL comparison must not be defined")
	}
	if _, ok := Equal(Int(1), Null()); ok {
		t.Error("NULL equality must not be defined")
	}
}

func TestCompareStringsAndBools(t *testing.T) {
	if c, _ := Compare(Str("a"), Str("b")); c >= 0 {
		t.Error("string compare broken")
	}
	if c, _ := Compare(Bool(false), Bool(true)); c >= 0 {
		t.Error("false < true expected")
	}
	if c, _ := Compare(Bool(true), Bool(true)); c != 0 {
		t.Error("true == true expected")
	}
}

func TestIdentical(t *testing.T) {
	if !Identical(Null(), Null()) {
		t.Error("NULL identical to NULL")
	}
	if Identical(Null(), Int(0)) {
		t.Error("NULL not identical to 0")
	}
	if !Identical(Int(1), Float(1)) {
		t.Error("1 identical to 1.0")
	}
}

func TestSortCompareNullsFirst(t *testing.T) {
	if SortCompare(Null(), Int(-100)) >= 0 {
		t.Error("NULL must sort before values")
	}
	if SortCompare(Int(-100), Null()) <= 0 {
		t.Error("values must sort after NULL")
	}
	if SortCompare(Null(), Null()) != 0 {
		t.Error("NULL ties with NULL")
	}
}

func TestKeySemantics(t *testing.T) {
	if Int(1).Key() != Float(1).Key() {
		t.Error("1 and 1.0 must share keys")
	}
	if Int(0).Key() == Null().Key() {
		t.Error("0 and NULL must differ")
	}
	if Str("1").Key() == Int(1).Key() {
		t.Error("'1' and 1 must differ")
	}
	if Bool(true).Key() == Bool(false).Key() {
		t.Error("booleans must differ")
	}
}

func TestRowKeyInjectiveOnLengths(t *testing.T) {
	a := RowKey([]D{Str("ab"), Str("c")})
	b := RowKey([]D{Str("a"), Str("bc")})
	if a == b {
		t.Error("row keys must not collide across boundaries")
	}
}

func TestKeyConsistentWithIdentical(t *testing.T) {
	vals := []D{Null(), Int(0), Int(1), Float(1), Float(1.5), Str(""), Str("a"),
		Bool(true), Bool(false), Int(-7)}
	for _, a := range vals {
		for _, b := range vals {
			if Identical(a, b) != (a.Key() == b.Key()) {
				t.Errorf("Key/Identical disagree for %v vs %v", a, b)
			}
		}
	}
}

func TestCompareRows(t *testing.T) {
	a := []D{Int(1), Str("a")}
	b := []D{Int(1), Str("b")}
	if CompareRows(a, b) >= 0 {
		t.Error("row compare broken")
	}
	if CompareRows(a, a) != 0 {
		t.Error("row self-compare should be 0")
	}
	if CompareRows([]D{Int(1)}, a) >= 0 {
		t.Error("shorter row should sort first")
	}
}

func TestTruthTable(t *testing.T) {
	cases := []struct {
		a, b Truth
		and  Truth
		or   Truth
	}{
		{True, True, True, True},
		{True, False, False, True},
		{True, Unknown, Unknown, True},
		{False, False, False, False},
		{False, Unknown, False, Unknown},
		{Unknown, Unknown, Unknown, Unknown},
	}
	for _, c := range cases {
		if c.a.And(c.b) != c.and || c.b.And(c.a) != c.and {
			t.Errorf("%v AND %v", c.a, c.b)
		}
		if c.a.Or(c.b) != c.or || c.b.Or(c.a) != c.or {
			t.Errorf("%v OR %v", c.a, c.b)
		}
	}
	if True.Not() != False || False.Not() != True || Unknown.Not() != Unknown {
		t.Error("NOT broken")
	}
}

func TestTruthOf(t *testing.T) {
	if TruthOf(Null()) != Unknown || TruthOf(Bool(true)) != True ||
		TruthOf(Int(0)) != False || TruthOf(Float(2)) != True {
		t.Error("TruthOf broken")
	}
	if Unknown.D().K != KNull || True.D().B != true {
		t.Error("Truth.D broken")
	}
}

func TestStringRendering(t *testing.T) {
	cases := map[string]D{
		"NULL":    Null(),
		"42":      Int(42),
		"1.5":     Float(1.5),
		"2.0":     Float(2),
		"'it''s'": Str("it's"),
		"TRUE":    Bool(true),
	}
	for want, d := range cases {
		if got := d.String(); got != want {
			t.Errorf("%v String = %q, want %q", d, got, want)
		}
	}
}

func TestCompareAntisymmetry(t *testing.T) {
	f := func(a, b int64) bool {
		c1, _ := Compare(Int(a), Int(b))
		c2, _ := Compare(Int(b), Int(a))
		return sign(c1) == -sign(c2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

// TestKeyEqualAndRowHashFollowKey pins KeyEqual to Key equality and
// RowHash to RowKey equality over values chosen to stress the encoding:
// INT/FLOAT twins, signed zeros, NaN payloads, integers past 2^53 and
// strings that look like encoded keys.
func TestKeyEqualAndRowHashFollowKey(t *testing.T) {
	vals := []D{
		Null(), Int(0), Float(0), Float(math.Copysign(0, -1)), Int(1), Float(1),
		Float(1.5), Float(math.NaN()), Float(math.Float64frombits(0x7ff8000000000001)),
		Float(math.Inf(1)), Float(math.Inf(-1)), Int(1 << 53), Int(1<<53 + 1),
		Float(1 << 53), Int(-3), Str(""), Str("1"), Str("n1"), Str("1:n1"),
		Str("b1"), Bool(true), Bool(false),
	}
	for _, a := range vals {
		for _, b := range vals {
			want := a.Key() == b.Key()
			if got := KeyEqual(a, b); got != want {
				t.Errorf("KeyEqual(%v %v, %v %v) = %v, keys %q %q", a.K, a, b.K, b, got, a.Key(), b.Key())
			}
			ra, rb := []D{a, Str("x")}, []D{b, Str("x")}
			if RowKey(ra) == RowKey(rb) && RowHash(ra) != RowHash(rb) {
				t.Errorf("equal RowKeys hash differently: %v vs %v", ra, rb)
			}
		}
	}
}

// Package datum provides the SQL value model shared by the storage engine,
// executor, and planner: typed scalars with SQL comparison semantics
// (numeric cross-type comparison, three-valued logic via explicit null
// signalling) and key encoding for hashing and ordered indexes.
package datum

import (
	"fmt"
	"hash/maphash"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the value types of the engine's SQL subset.
type Kind uint8

// The supported value kinds.
const (
	KNull Kind = iota
	KInt
	KFloat
	KString
	KBool
)

func (k Kind) String() string {
	switch k {
	case KNull:
		return "NULL"
	case KInt:
		return "INT"
	case KFloat:
		return "FLOAT"
	case KString:
		return "TEXT"
	case KBool:
		return "BOOL"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// D is a single SQL value. The zero value is SQL NULL.
type D struct {
	K Kind
	I int64
	F float64
	S string
	B bool
}

// Null returns the SQL NULL value.
func Null() D { return D{} }

// Int returns an integer value.
func Int(i int64) D { return D{K: KInt, I: i} }

// Float returns a float value.
func Float(f float64) D { return D{K: KFloat, F: f} }

// String returns a text value.
func Str(s string) D { return D{K: KString, S: s} }

// Bool returns a boolean value.
func Bool(b bool) D { return D{K: KBool, B: b} }

// IsNull reports whether d is SQL NULL.
func (d D) IsNull() bool { return d.K == KNull }

// String renders the value as a SQL literal.
func (d D) String() string {
	switch d.K {
	case KNull:
		return "NULL"
	case KInt:
		return strconv.FormatInt(d.I, 10)
	case KFloat:
		if d.F == math.Trunc(d.F) && math.Abs(d.F) < 1e15 {
			return strconv.FormatFloat(d.F, 'f', 1, 64)
		}
		return strconv.FormatFloat(d.F, 'g', -1, 64)
	case KString:
		return "'" + strings.ReplaceAll(d.S, "'", "''") + "'"
	case KBool:
		if d.B {
			return "TRUE"
		}
		return "FALSE"
	}
	return "?"
}

// AsFloat coerces numeric values (and booleans) to float64; the boolean
// result reports whether the coercion applies.
func (d D) AsFloat() (float64, bool) {
	switch d.K {
	case KInt:
		return float64(d.I), true
	case KFloat:
		return d.F, true
	case KBool:
		if d.B {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

// IsNumeric reports whether the value is an INT or FLOAT.
func (d D) IsNumeric() bool { return d.K == KInt || d.K == KFloat }

// Compare orders two non-null values with SQL semantics: numeric kinds
// compare by value across INT/FLOAT; otherwise values of different kinds
// order by kind (BOOL < numeric < TEXT, a deterministic engine-internal
// rule). The second result is false when either side is NULL, in which case
// the caller must apply three-valued logic.
func Compare(a, b D) (int, bool) {
	if a.IsNull() || b.IsNull() {
		return 0, false
	}
	af, aNum := a.AsFloat()
	bf, bNum := b.AsFloat()
	if aNum && bNum && a.K != KBool && b.K != KBool {
		switch {
		case af < bf:
			return -1, true
		case af > bf:
			return 1, true
		}
		return 0, true
	}
	if a.K != b.K {
		// Deterministic cross-kind ordering for sort stability.
		return int(a.K) - int(b.K), true
	}
	switch a.K {
	case KString:
		return strings.Compare(a.S, b.S), true
	case KBool:
		switch {
		case a.B == b.B:
			return 0, true
		case b.B:
			return -1, true
		}
		return 1, true
	}
	return 0, true
}

// Equal reports SQL equality of two values; the second result is false when
// either side is NULL.
func Equal(a, b D) (bool, bool) {
	c, ok := Compare(a, b)
	return c == 0, ok
}

// Identical reports whether two values are indistinguishable, treating NULL
// as identical to NULL (used by DISTINCT, GROUP BY, and set operations,
// which consider NULLs equal).
func Identical(a, b D) bool {
	if a.IsNull() || b.IsNull() {
		return a.IsNull() && b.IsNull()
	}
	eq, _ := Equal(a, b)
	return eq
}

// SortCompare orders values for ORDER BY: NULLs sort first, then Compare.
func SortCompare(a, b D) int {
	switch {
	case a.IsNull() && b.IsNull():
		return 0
	case a.IsNull():
		return -1
	case b.IsNull():
		return 1
	}
	c, _ := Compare(a, b)
	return c
}

// Key encodes the value into a string usable as a grouping/hash key, with
// Identical semantics: Identical values share keys, including NULLs, and
// numerically equal INT/FLOAT values collide.
func (d D) Key() string {
	switch d.K {
	case KNull:
		return "\x00"
	case KInt:
		return "n" + strconv.FormatFloat(float64(d.I), 'g', -1, 64)
	case KFloat:
		return "n" + strconv.FormatFloat(d.F, 'g', -1, 64)
	case KString:
		return "s" + d.S
	case KBool:
		if d.B {
			return "b1"
		}
		return "b0"
	}
	return "?"
}

// KeyEqual reports whether a.Key() == b.Key() without building either key:
// INT and FLOAT compare as float64 (so 1 equals 1.0 and -0.0 differs from
// 0), all NaNs are equal, and values of other kinds compare within their
// kind.
//
//uplan:hotpath
func KeyEqual(a, b D) bool {
	af, aNum := keyFloat(a)
	bf, bNum := keyFloat(b)
	if aNum || bNum {
		return aNum && bNum && math.Float64bits(af) == math.Float64bits(bf)
	}
	if a.K != b.K {
		return false
	}
	switch a.K {
	case KString:
		return a.S == b.S
	case KBool:
		return a.B == b.B
	}
	return true
}

// keyFloat returns the float64 a numeric value's Key is printed from, with
// every NaN folded to one bit pattern; the second result is false for
// non-numeric kinds. FormatFloat's shortest form is unique per float64, so
// two numeric keys are equal exactly when these bit patterns are.
func keyFloat(d D) (float64, bool) {
	var f float64
	switch d.K {
	case KInt:
		f = float64(d.I)
	case KFloat:
		f = d.F
	default:
		return 0, false
	}
	if f != f {
		f = math.NaN()
	}
	return f, true
}

// rowHashSeed keys RowHash. Hashes are only compared within one process.
var rowHashSeed = maphash.MakeSeed()

// RowHash hashes a row consistently with RowKey: rows with equal RowKeys
// hash equally. Unequal rows may collide, so equal hashes prove nothing
// on their own; callers confirm with KeyEqual.
//
//uplan:hotpath
func RowHash(row []D) uint64 {
	h := uint64(len(row))
	for _, d := range row {
		h = mix64(h ^ Hash(d))
	}
	return h
}

// Hash hashes one value consistently with Key: values with equal Keys
// hash equally. The hash is the value's hash within its key class (INT
// and FLOAT share the numeric class, as they share Key's "n" prefix),
// unmixed; unequal values may collide, so callers confirm with KeyEqual.
//
//uplan:hotpath
func Hash(d D) uint64 {
	switch d.K {
	case KInt, KFloat:
		f, _ := keyFloat(d)
		return math.Float64bits(f) ^ 0x9e3779b97f4a7c15
	case KString:
		return maphash.String(rowHashSeed, d.S) ^ 0x3c6ef372fe94f82a
	case KBool:
		if d.B {
			return 0x510e527fade682d2
		}
		return 0x510e527fade682d1
	}
	return 0
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// RowKey encodes a slice of values into a composite key.
func RowKey(row []D) string {
	var b strings.Builder
	for _, d := range row {
		k := d.Key()
		b.WriteString(strconv.Itoa(len(k)))
		b.WriteByte(':')
		b.WriteString(k)
	}
	return b.String()
}

// CompareRows orders two equal-length rows lexicographically with
// SortCompare per column.
func CompareRows(a, b []D) int {
	for i := range a {
		if i >= len(b) {
			return 1
		}
		if c := SortCompare(a[i], b[i]); c != 0 {
			return c
		}
	}
	if len(a) < len(b) {
		return -1
	}
	return 0
}

// Truth is a three-valued logic truth value.
type Truth uint8

// The three truth values of SQL.
const (
	False Truth = iota
	True
	Unknown
)

// TruthOf converts a value to its SQL truth value: NULL is Unknown,
// booleans map directly, and non-zero numerics are True.
func TruthOf(d D) Truth {
	switch d.K {
	case KNull:
		return Unknown
	case KBool:
		if d.B {
			return True
		}
		return False
	case KInt:
		if d.I != 0 {
			return True
		}
		return False
	case KFloat:
		if d.F != 0 {
			return True
		}
		return False
	}
	return False
}

// D converts a truth value back to a datum (Unknown becomes NULL).
func (t Truth) D() D {
	switch t {
	case True:
		return Bool(true)
	case False:
		return Bool(false)
	}
	return Null()
}

// And implements 3VL conjunction.
func (t Truth) And(o Truth) Truth {
	if t == False || o == False {
		return False
	}
	if t == Unknown || o == Unknown {
		return Unknown
	}
	return True
}

// Or implements 3VL disjunction.
func (t Truth) Or(o Truth) Truth {
	if t == True || o == True {
		return True
	}
	if t == Unknown || o == Unknown {
		return Unknown
	}
	return False
}

// Not implements 3VL negation.
func (t Truth) Not() Truth {
	switch t {
	case True:
		return False
	case False:
		return True
	}
	return Unknown
}

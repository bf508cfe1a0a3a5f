package exec

import (
	"math/rand"
	"testing"
)

// likeMatchDP is the reference LIKE matcher: dynamic programming over
// pattern and string positions, with % (any run) and _ (any single byte).
func likeMatchDP(s, pattern string) bool {
	m, n := len(pattern), len(s)
	dp := make([][]bool, m+1)
	for i := range dp {
		dp[i] = make([]bool, n+1)
	}
	dp[0][0] = true
	for i := 1; i <= m; i++ {
		if pattern[i-1] == '%' {
			dp[i][0] = dp[i-1][0]
		}
		for j := 1; j <= n; j++ {
			switch pattern[i-1] {
			case '%':
				dp[i][j] = dp[i-1][j] || dp[i][j-1]
			case '_':
				dp[i][j] = dp[i-1][j-1]
			default:
				dp[i][j] = dp[i-1][j-1] && pattern[i-1] == s[j-1]
			}
		}
	}
	return dp[m][n]
}

// allStrings returns every string of length 0..maxLen over alphabet.
func allStrings(alphabet string, maxLen int) []string {
	out := []string{""}
	level := []string{""}
	for l := 0; l < maxLen; l++ {
		var next []string
		for _, prefix := range level {
			for i := 0; i < len(alphabet); i++ {
				next = append(next, prefix+alphabet[i:i+1])
			}
		}
		out = append(out, next...)
		level = next
	}
	return out
}

// TestLikeMatchMatchesDP holds likeMatch to the DP reference: every pair
// of short strings and patterns over a small alphabet (including literal
// % and _ in the subject), then random longer pairs with multi-byte
// UTF-8, where _ must match one byte, not one rune.
func TestLikeMatchMatchesDP(t *testing.T) {
	short := allStrings("ab%_", 4)
	for _, p := range short {
		for _, s := range short {
			if got, want := likeMatch(s, p), likeMatchDP(s, p); got != want {
				t.Fatalf("likeMatch(%q, %q) = %v, reference %v", s, p, got, want)
			}
		}
	}
	pieces := []string{"a", "b", "c", "é", "%", "_", "%%", "ab"}
	gen := func(r *rand.Rand, n int) string {
		var b []byte
		for i := r.Intn(n + 1); i > 0; i-- {
			b = append(b, pieces[r.Intn(len(pieces))]...)
		}
		return string(b)
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		s, p := gen(r, 12), gen(r, 8)
		if got, want := likeMatch(s, p), likeMatchDP(s, p); got != want {
			t.Fatalf("likeMatch(%q, %q) = %v, reference %v", s, p, got, want)
		}
	}
	if !likeMatch("é", "__") || likeMatch("é", "_") {
		t.Error("_ must match one byte of a multi-byte rune")
	}
}

// TestLikeMatchAllocs: LIKE runs once per row, so it must not allocate.
func TestLikeMatchAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		likeMatch("the quick brown fox jumps over the lazy dog", "%qu_ck%o%r%dog")
		likeMatch("aaaaaaaaaaaaaaaaaaaaaaaaaaaaab", "%a%a%a%a%c")
	})
	if allocs != 0 {
		t.Fatalf("likeMatch allocates %.1f times per call pair, want 0", allocs)
	}
}

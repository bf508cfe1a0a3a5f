package lint

import (
	"go/ast"
	"strconv"
	"strings"
)

// HotAlloc guards the perf work: inside //uplan:hotpath scopes (a marked
// function, or every function of a package whose package doc carries the
// directive) it flags the known-allocating idioms the optimization passes
// eliminated, so they cannot silently creep back in:
//
//   - convert.For: builds a converter against a freshly resolved registry
//     view per call; hot paths must use convert.Cached or a worker-local
//     converter cache.
//   - strings.Split(s, "\n"): allocates a string-header slice per call
//     (one header per line); hot paths iterate lines with an index-based
//     cursor (see convert's line iterator).
//   - fmt.Sprintf inside a loop: one (or more) allocation per iteration
//     for formatting machinery; hoist or build with strconv/append.
//     (fmt.Errorf is deliberately exempt: error construction sits on the
//     cold path even inside hot loops.)
//   - encoding/json Marshal, MarshalIndent, Unmarshal and NewDecoder:
//     reflective encoding and decoding that the append-style writers
//     and the jsontext scanner replaced; an encoding/json fallback
//     belongs in a separate, unmarked function.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc: "flags known-allocating idioms (convert.For, strings.Split line " +
		"iteration, fmt.Sprintf in loops, reflective encoding/json) inside " +
		"//uplan:hotpath scopes",
	Run: runHotAlloc,
}

func runHotAlloc(pass *Pass) error {
	for _, f := range pass.Files {
		// Loop-body ranges, for the Sprintf-in-loop check.
		var loops []posRange
		ast.Inspect(f, func(n ast.Node) bool {
			switch l := n.(type) {
			case *ast.ForStmt:
				loops = append(loops, posRange{l.Body.Pos(), l.Body.End()})
			case *ast.RangeStmt:
				loops = append(loops, posRange{l.Body.Pos(), l.Body.End()})
			}
			return true
		})
		inLoop := func(n ast.Node) bool {
			for _, r := range loops {
				if r.start <= n.Pos() && n.Pos() < r.end {
					return true
				}
			}
			return false
		}

		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !pass.InHotPath(call.Pos()) {
				return true
			}
			switch name := funcFullName(calleeFunc(pass.Info, call)); name {
			case "uplan/internal/convert.For":
				pass.Reportf(call.Pos(), "convert.For rebuilds the converter per call on a hot path; use convert.Cached or a worker-local converter cache")
			case "strings.Split", "strings.SplitAfter":
				if len(call.Args) == 2 && isStringLit(call.Args[1], "\n") {
					pass.Reportf(call.Pos(), "strings.Split over \"\\n\" allocates one string header per line on a hot path; iterate lines with an index cursor instead")
				}
			case "fmt.Sprintf":
				if inLoop(call) {
					pass.Reportf(call.Pos(), "fmt.Sprintf inside a loop on a hot path allocates per iteration; hoist it or build with strconv/append")
				}
			case "encoding/json.Marshal", "encoding/json.MarshalIndent", "encoding/json.Unmarshal", "encoding/json.NewDecoder":
				pass.Reportf(call.Pos(), "%s on a hot path is a reflective pass over the value; append with jsontext or scan with jsontext.Scanner, and keep any encoding/json fallback in an unmarked function",
					strings.TrimPrefix(name, "encoding/"))
			}
			return true
		})
	}
	return nil
}

// isStringLit reports whether e is the string literal with value want.
func isStringLit(e ast.Expr, want string) bool {
	lit, ok := ast.Unparen(e).(*ast.BasicLit)
	if !ok {
		return false
	}
	v, err := strconv.Unquote(lit.Value)
	return err == nil && v == want
}

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// writerMethods are method names through which data reaches an output
// stream or encoder. A call to one of these inside a map-range body
// emits in nondeterministic order and no later sort can repair it.
var writerMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Encode": true, "Fprint": true, "Fprintf": true, "Fprintln": true,
	"Print": true, "Printf": true, "Println": true,
}

// maporderAnalyzer flags map iteration whose order escapes into output:
// a range over a map that appends to a slice never subsequently sorted,
// or that writes to an encoder/stream directly. Map-to-map folds
// (out[k] += v) are order-insensitive and stay legal. Map-ness comes
// from the resolved type of the range operand, so any expression counts
// — fields, calls, and named map types such as http.Header included.
func maporderAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "maporder",
		Doc:  "forbid map-iteration order reaching appends or encoder output without a sort",
		Run: func(p *Pass) {
			info := p.Pkg.TypesInfo
			for _, f := range p.Pkg.Files {
				sortName := importName(f, "sort")
				for _, fn := range funcDecls(f) {
					ast.Inspect(fn.Body, func(n ast.Node) bool {
						rs, ok := n.(*ast.RangeStmt)
						if !ok {
							return true
						}
						if _, isMap := info.TypeOf(rs.X).Underlying().(*types.Map); isMap {
							checkMapRange(p, fn, rs, sortName)
						}
						return true
					})
				}
			}
		},
	}
}

// checkMapRange inspects one range-over-map statement: direct writes
// are flagged outright; appends are flagged unless a sort mentioning
// the target follows the loop.
func checkMapRange(p *Pass, fn *ast.FuncDecl, rs *ast.RangeStmt, sortName string) {
	type appendSite struct {
		target string
		pos    token.Pos
	}
	var appends []appendSite
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			if len(v.Lhs) != len(v.Rhs) {
				return true
			}
			for i, rhs := range v.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok {
					continue
				}
				if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" {
					continue
				}
				appends = append(appends, appendSite{target: render(v.Lhs[i]), pos: call.Pos()})
			}
		case *ast.CallExpr:
			sel, ok := v.Fun.(*ast.SelectorExpr)
			if ok && writerMethods[sel.Sel.Name] {
				p.Reportf(v.Pos(),
					"%s.%s writes output inside a map range; iteration order is nondeterministic — collect and sort first",
					render(sel.X), sel.Sel.Name)
			}
		}
		return true
	})

	for _, site := range appends {
		if sortName != "" && sortedAfter(fn, rs, sortName, site.target) {
			continue
		}
		p.Reportf(site.pos,
			"append to %s in map-iteration order with no later sort; map range order is nondeterministic",
			site.target)
	}
}

// sortedAfter reports whether a sort.* call positioned after the range
// loop references target in any argument (sort.Strings(target),
// sort.Slice(target, func...), and friends).
func sortedAfter(fn *ast.FuncDecl, rs *ast.RangeStmt, sortName, target string) bool {
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		x, ok := sel.X.(*ast.Ident)
		if !ok || x.Name != sortName {
			return true
		}
		for _, arg := range call.Args {
			if strings.Contains(renderArg(arg), target) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// renderArg renders a sort argument for matching; function literals
// (sort.Slice comparators) are searched for every expression they
// mention.
func renderArg(arg ast.Expr) string {
	if fl, ok := arg.(*ast.FuncLit); ok {
		var b strings.Builder
		ast.Inspect(fl.Body, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				b.WriteString(render(e))
				b.WriteByte(' ')
			}
			return true
		})
		return b.String()
	}
	return render(arg)
}

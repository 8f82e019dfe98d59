package lint

// Shared AST helpers: import-name resolution, expression rendering,
// and function enumeration.

import (
	"go/ast"
	"strconv"
	"strings"
)

// importName returns the identifier by which path is referenced in f:
// the explicit alias if present, else the path's last element. ""
// means not imported (or imported blank/dot, which no analyzer here
// can track).
func importName(f *ast.File, path string) string {
	for _, imp := range f.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil || p != path {
			continue
		}
		if imp.Name != nil {
			if imp.Name.Name == "_" || imp.Name.Name == "." {
				return ""
			}
			return imp.Name.Name
		}
		if i := strings.LastIndex(p, "/"); i >= 0 {
			p = p[i+1:]
		}
		return p
	}
	return ""
}

// render produces a compact, stable rendering of an expression for
// structural matching (append targets against sort arguments). It is
// not a printer: unsupported forms render as "?".
func render(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return render(v.X) + "." + v.Sel.Name
	case *ast.IndexExpr:
		return render(v.X) + "[]"
	case *ast.CallExpr:
		return render(v.Fun) + "()"
	case *ast.StarExpr:
		return "*" + render(v.X)
	case *ast.UnaryExpr:
		return v.Op.String() + render(v.X)
	case *ast.ParenExpr:
		return render(v.X)
	case *ast.BasicLit:
		return v.Value
	default:
		return "?"
	}
}

// funcDecls yields every top-level function declaration with a body.
func funcDecls(f *ast.File) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, decl := range f.Decls {
		if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
			out = append(out, fn)
		}
	}
	return out
}

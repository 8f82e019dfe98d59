package lint

// Shared go/types helpers. Everything here degrades to "unknown"
// (nil/false) rather than guessing.

import (
	"go/ast"
	"go/types"
)

// calleeFunc resolves the declared function or method a call invokes:
// qualified identifiers (pkg.F), method selections (x.M), and plain
// identifiers. nil for builtins, conversions, and function values the
// checker could not attribute.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// namedOf unwraps pointers down to the named type beneath, if any.
func namedOf(t types.Type) *types.Named {
	for {
		switch v := t.(type) {
		case *types.Pointer:
			t = v.Elem()
		case *types.Named:
			return v
		default:
			return nil
		}
	}
}

// isNetConn reports whether t is exactly the net.Conn interface type.
func isNetConn(t types.Type) bool {
	n := namedOf(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "net" && obj.Name() == "Conn"
}

// hasMethod reports whether t (addressable) has an exported method of
// the given name, declared or promoted.
func hasMethod(t types.Type, name string) bool {
	if t == nil {
		return false
	}
	obj, _, _ := types.LookupFieldOrMethod(t, true, nil, name)
	_, ok := obj.(*types.Func)
	return ok
}

// funcIn reports whether f is a function or method declared in the
// package with the given import path.
func funcIn(f *types.Func, path string) bool {
	return f != nil && f.Pkg() != nil && f.Pkg().Path() == path
}

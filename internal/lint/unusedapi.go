package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// unusedapiAnalyzer flags package-level funcs, methods, types, vars and
// consts under internal/, exported or not, that no non-test file of the
// module uses outside their own declaration. Test files are never
// loaded, so API only its tests call is flagged; bench/, examples/ and
// cmd/ are ordinary callers. A method that satisfies an interface is
// exempt, and a method receiver is no use of its type. Uses are counted
// over Pass.Module, so a subset run flags what the full run flags.
func unusedapiAnalyzer() *Analyzer {
	var idx *apiIndex // built once per module
	return &Analyzer{
		Name: "unusedapi",
		Doc:  "every package-level declaration under internal/ has a non-test use",
		Run: func(p *Pass) {
			if !strings.Contains(p.Pkg.Path+"/", "/internal/") {
				return
			}
			if idx == nil || len(idx.module) != len(p.Module) || len(p.Module) > 0 && &idx.module[0] != &p.Module[0] {
				idx = indexModule(p.Module)
			}
			for _, f := range p.Pkg.Files {
				for _, decl := range f.Decls {
					for _, d := range declared(p.Pkg.TypesInfo, decl) {
						if !idx.used[d.obj] && !idx.satisfiesInterface(d.obj) {
							p.Reportf(d.id.Pos(), "%s has no use outside its declaration in any non-test file of the module; delete it, move it into a _test.go file, or justify it with //lint:allow unusedapi <reason>", d.id.Name)
						}
					}
				}
			}
		},
	}
}

// declaration is one package-level name, its object, and the node
// whose span is its own declaration: uses inside it do not count.
type declaration struct {
	id  *ast.Ident
	obj types.Object
	own ast.Node
}

// declared lists the package-level names one declaration introduces,
// blank identifiers and init excluded.
func declared(info *types.Info, decl ast.Decl) []declaration {
	var out []declaration
	add := func(id *ast.Ident, own ast.Node) {
		if obj := info.Defs[id]; obj != nil && id.Name != "_" && id.Name != "init" {
			out = append(out, declaration{id, obj, own})
		}
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		add(d.Name, d)
	case *ast.GenDecl:
		for _, sp := range d.Specs {
			switch s := sp.(type) {
			case *ast.TypeSpec:
				add(s.Name, s)
			case *ast.ValueSpec:
				for _, id := range s.Names {
					add(id, s)
				}
			}
		}
	}
	return out
}

// apiIndex is what unusedapi knows of a module: the objects with a
// counting use, and by method name every interface in reach — those of
// the module and of every package it imports, transitively, the
// interface literals it spells out, and the errors protocol.
type apiIndex struct {
	module []*Package
	used   map[types.Object]bool
	ifaces map[string][]*types.Interface
}

// errorsProtocol is error itself plus the interfaces errors.Is, As and
// Unwrap assert anonymously inside package errors.
var errorsProtocol = []string{"error", "interface{ Unwrap() error }", "interface{ Unwrap() []error }",
	"interface{ Is(error) bool }", "interface{ As(any) bool }"}

func indexModule(module []*Package) *apiIndex {
	idx := &apiIndex{module: module, used: map[types.Object]bool{}, ifaces: map[string][]*types.Interface{}}
	for _, src := range errorsProtocol {
		if tv, err := types.Eval(token.NewFileSet(), nil, token.NoPos, src); err == nil {
			idx.addInterface(tv.Type)
		}
	}
	seen := map[*types.Package]bool{}
	var scan func(tp *types.Package)
	scan = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		for _, name := range tp.Scope().Names() {
			if tn, ok := tp.Scope().Lookup(name).(*types.TypeName); ok {
				idx.addInterface(tn.Type())
			}
		}
		for _, imp := range tp.Imports() {
			scan(imp)
		}
	}
	for _, pkg := range module {
		if !pkg.Typed() {
			continue
		}
		scan(pkg.Types)
		own := map[types.Object]ast.Node{}
		recv := map[*ast.Ident]bool{} // receivers are no use of their type
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				for _, d := range declared(pkg.TypesInfo, decl) {
					own[d.obj] = d.own
				}
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil {
					ast.Inspect(fd.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							recv[id] = true
						}
						return true
					})
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					idx.addInterface(pkg.TypesInfo.TypeOf(it))
				}
				return true
			})
		}
		for id, obj := range pkg.TypesInfo.Uses {
			obj = origin(obj)
			decl := own[obj]
			if decl == nil || !recv[id] && (id.Pos() < decl.Pos() || id.Pos() >= decl.End()) {
				idx.used[obj] = true
			}
		}
	}
	return idx
}

// addInterface indexes t under each of its method names when it is an
// interface.
func (idx *apiIndex) addInterface(t types.Type) {
	if it, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			idx.ifaces[name] = append(idx.ifaces[name], it)
		}
	}
}

// satisfiesInterface reports whether obj is a method through which its
// receiver type, or a pointer to it, implements an indexed interface. A
// generic receiver is matched by method name alone.
func (idx *apiIndex) satisfiesInterface(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	named := namedOf(recv.Type())
	for _, it := range idx.ifaces[fn.Name()] {
		if named == nil || named.TypeParams().Len() > 0 ||
			types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
			return true
		}
	}
	return false
}

// origin maps an instantiated generic function, method or field back
// to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

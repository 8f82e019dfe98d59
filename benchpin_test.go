package repro

import (
	"go/ast"
	"go/types"
	"path"
	"sort"
	"strings"
	"testing"

	"repro/internal/lint"
)

// benchPinFields are the fields nothing reads any more but bench/ still
// sets; like a benchpin.go symbol, no other program file may name them.
var benchPinFields = []struct{ pkg, typ, field string }{
	{"repro/internal/analysis", "Recorder", "Pooled"},
	{"repro/internal/browser", "Config", "ReuseScratch"},
	{"repro/internal/colstore", "Config", "NumShards"},
	{"repro/internal/core", "Options", "Store"},
	{"repro/internal/core", "FabricCoordinatorOptions", "CheckpointPath"},
	{"repro/internal/core", "FabricCoordinatorOptions", "SpoolDir"},
}

// TestBenchPinsStayInBench: a package's benchpin.go declares API that
// only bench/ still uses, kept so bench compiles until ROADMAP 1(b)
// deletes it. No other non-test file of the module — production code,
// commands, examples, another benchpin.go's package — may use a symbol
// a benchpin.go declares or one of benchPinFields, and every exported
// pin must still be used by bench/ (one it no longer uses is deleted,
// not kept). The module is type-checked, so a use is the object itself
// (the spool writer's Append, not any method named Append).
func TestBenchPinsStayInBench(t *testing.T) {
	pkgs, err := lint.LoadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	byPath := map[string]*lint.Package{}
	pinned := map[types.Object]string{}
	for _, p := range pkgs {
		if !p.Typed() {
			t.Fatalf("%s does not type-check: %v", p.Path, p.Errs)
		}
		byPath[p.Path] = p
		for i, f := range p.Files {
			if path.Base(p.Filenames[i]) != "benchpin.go" {
				continue
			}
			for _, decl := range f.Decls {
				var names []*ast.Ident
				switch d := decl.(type) {
				case *ast.FuncDecl:
					names = append(names, d.Name)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							names = append(names, s.Name)
						case *ast.ValueSpec:
							names = append(names, s.Names...)
						}
					}
				}
				for _, id := range names {
					if obj := p.TypesInfo.Defs[id]; obj != nil {
						pinned[obj] = p.Filenames[i] + ": " + id.Name
					}
				}
			}
		}
	}
	for _, pf := range benchPinFields {
		p := byPath[pf.pkg]
		if p == nil {
			t.Fatalf("package %s not loaded", pf.pkg)
		}
		tn, _ := p.Types.Scope().Lookup(pf.typ).(*types.TypeName)
		if tn == nil {
			t.Fatalf("%s.%s not found", pf.pkg, pf.typ)
		}
		obj, _, _ := types.LookupFieldOrMethod(tn.Type(), false, p.Types, pf.field)
		if obj == nil {
			t.Fatalf("%s.%s has no field %s", pf.pkg, pf.typ, pf.field)
		}
		pinned[obj] = pf.typ + "." + pf.field
	}
	var names []string
	for _, what := range pinned {
		names = append(names, what)
	}
	sort.Strings(names)
	t.Logf("%d pinned symbols: %s", len(pinned), strings.Join(names, ", "))
	if len(pinned) == len(benchPinFields) {
		t.Fatal("no benchpin.go symbol found")
	}

	benchUses := map[types.Object]bool{}
	for _, p := range pkgs {
		inBench := p.Path == "repro/bench" || strings.HasPrefix(p.Path, "repro/bench/")
		for i, f := range p.Files {
			if path.Base(p.Filenames[i]) == "benchpin.go" {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				obj := p.TypesInfo.Uses[id]
				switch what, ok := pinned[obj]; {
				case !ok:
				case inBench:
					benchUses[obj] = true
				default:
					t.Errorf("%s uses %s, which only bench/ may use", p.Fset.Position(id.Pos()), what)
				}
				return true
			})
		}
	}
	for obj, what := range pinned {
		if obj.Exported() && !benchUses[obj] {
			t.Errorf("bench/ no longer uses %s: delete it", what)
		}
	}
}

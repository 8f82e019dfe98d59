package lint

// lockguard turns the repo's existing "guarded by <mu>" field-comment
// convention (wsproto.Conn's close state and scratch buffers, the web
// server's socket set, the colstore writer, the dispatch ledger, the
// shard merger, the in-memory conn) into a checked contract: a field so
// annotated may only be accessed in functions that lock the named
// sibling mutex first (on the same receiver chain, before the access,
// with no intervening non-deferred unlock). Composite-literal
// construction is exempt — there is no selector, and the value is not
// yet shared. Copied mutexes are not this analyzer's business: `go
// vet`'s copylocks check holds that, at every site.
//
// The analysis is function-local and linear: it does not model
// helpers that run with the caller's lock held. Such helpers should
// either take the annotation off or carry a justified //lint:allow.

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

var guardedByRe = regexp.MustCompile(`guarded by (\w+)`)

// lockGuard is the parsed annotation of one struct field.
type lockGuard struct {
	mu    string // sibling mutex field name
	owner string // owning struct's type name, for messages
}

func lockguardAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "lockguard",
		Doc:  "fields annotated \"guarded by <mu>\" need that mutex held",
		Run: func(p *Pass) {
			if !p.Pkg.Typed() {
				return
			}
			guards := collectLockGuards(p)
			for _, f := range p.Pkg.Files {
				for _, fn := range funcDecls(f) {
					checkLockGuards(p, fn, guards)
				}
			}
		},
	}
}

// collectLockGuards parses "guarded by <mu>" annotations on struct
// fields of this package, reporting annotations that name a field the
// struct does not have (a stale annotation guards nothing).
func collectLockGuards(p *Pass) map[*types.Var]lockGuard {
	info := p.Pkg.TypesInfo
	guards := map[*types.Var]lockGuard{}
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok || st.Fields == nil {
					continue
				}
				fieldNames := map[string]bool{}
				for _, fld := range st.Fields.List {
					for _, name := range fld.Names {
						fieldNames[name.Name] = true
					}
				}
				for _, fld := range st.Fields.List {
					mu := guardAnnotation(fld)
					if mu == "" {
						continue
					}
					if !fieldNames[mu] {
						p.Reportf(fld.Pos(),
							"\"guarded by %s\" names no field of %s; the annotation guards nothing", mu, ts.Name.Name)
						continue
					}
					for _, name := range fld.Names {
						if v, ok := info.Defs[name].(*types.Var); ok {
							guards[v] = lockGuard{mu: mu, owner: ts.Name.Name}
						}
					}
				}
			}
		}
	}
	return guards
}

// guardAnnotation extracts the mutex name from a field's doc or line
// comment, if annotated.
func guardAnnotation(fld *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{fld.Doc, fld.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedByRe.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

// muEvent is one Lock/Unlock call on a rendered <base>.<mu> chain.
type muEvent struct {
	pos      token.Pos
	lock     bool
	deferred bool
}

// checkLockGuards flags accesses to guarded fields outside the lock.
func checkLockGuards(p *Pass, fn *ast.FuncDecl, guards map[*types.Var]lockGuard) {
	if len(guards) == 0 {
		return
	}
	info := p.Pkg.TypesInfo

	// Calls syntactically inside a defer run at function exit; their
	// unlocks must not end the held region at their source position.
	deferredCalls := map[*ast.CallExpr]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		d, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		deferredCalls[d.Call] = true
		ast.Inspect(d.Call, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok {
				deferredCalls[call] = true
			}
			return true
		})
		return true
	})

	// Mutex events keyed by "base.mu" render.
	events := map[string][]muEvent{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		var lock bool
		switch sel.Sel.Name {
		case "Lock", "RLock":
			lock = true
		case "Unlock", "RUnlock":
			lock = false
		default:
			return true
		}
		key := render(sel.X)
		events[key] = append(events[key], muEvent{pos: call.Pos(), lock: lock, deferred: deferredCalls[call]})
		return true
	})

	heldAt := func(key string, pos token.Pos) bool {
		held := false
		for _, ev := range events[key] {
			if ev.pos >= pos {
				break
			}
			if ev.lock {
				held = true
			} else if !ev.deferred {
				held = false
			}
		}
		return held
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		s, ok := info.Selections[sel]
		if !ok || s.Kind() != types.FieldVal {
			return true
		}
		v, ok := s.Obj().(*types.Var)
		if !ok {
			return true
		}
		g, guarded := guards[v]
		if !guarded {
			return true
		}
		key := render(sel.X) + "." + g.mu
		if !heldAt(key, sel.Pos()) {
			p.Reportf(sel.Pos(),
				"access to %s.%s without holding %s (annotated \"guarded by %s\")", g.owner, v.Name(), key, g.mu)
		}
		return true
	})
}

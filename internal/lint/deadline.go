package lint

// deadline enforces the PR 5 hardening rule mechanically: in the
// serving-plane packages (handshake, server, fleet, load, browser), a
// blocking read must be bounded by a deadline set earlier in the same
// function. Two shapes are recognized:
//
//   - net.Conn values: Read, io.ReadFull/ReadAtLeast, and wrapping in
//     a bufio.Reader (the handshake pattern — the wrap is where the
//     first buffered read happens) require a prior
//     SetReadDeadline/SetDeadline on the same connection value.
//     Passing the conn onward as a plain call argument is not a read;
//     the callee is checked on its own.
//   - ReadMessage on any receiver whose type also has SetReadDeadline
//     (wsproto.Conn and friends): each call site's function must set a
//     deadline on the same receiver chain first — the per-message idle
//     timeout discipline.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// deadlinePackages is the serving plane: packages whose blocking reads
// face remote peers and must never hang a goroutine forever.
var deadlinePackages = map[string]bool{
	"repro/internal/wsproto":   true,
	"repro/internal/webserver": true,
	"repro/internal/fabric":    true,
	"repro/internal/loadgen":   true,
	"repro/internal/browser":   true,
	"repro/internal/colstore":  true,
}

func deadlineAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "deadline",
		Doc:  "blocking reads in serving packages must be preceded by SetReadDeadline/SetDeadline",
		Run: func(p *Pass) {
			if !deadlinePackages[p.Pkg.Path] {
				return
			}
			for _, f := range p.Pkg.Files {
				for _, fn := range funcDecls(f) {
					checkConnDeadlines(p, fn)
					checkReadMessageDeadlines(p, fn)
				}
			}
		},
	}
}

// deadlineMethod reports whether name sets a deadline.
func deadlineMethod(name string) bool {
	return name == "SetReadDeadline" || name == "SetDeadline"
}

// checkConnDeadlines handles the net.Conn shape for one function.
func checkConnDeadlines(p *Pass, fn *ast.FuncDecl) {
	info := p.Pkg.TypesInfo

	// Every net.Conn-typed variable the function declares or receives.
	conns := map[types.Object]bool{}
	ast.Inspect(fn, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Defs[id]; obj != nil && isNetConn(obj.Type()) {
				conns[obj] = true
			}
		}
		return true
	})
	if len(conns) == 0 {
		return
	}

	connOf := func(e ast.Expr) types.Object {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil && conns[obj] {
				return obj
			}
		}
		return nil
	}

	setPos := map[types.Object]token.Pos{}
	type risk struct {
		obj  types.Object
		pos  token.Pos
		what string
	}
	var risks []risk
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if obj := connOf(sel.X); obj != nil {
				switch {
				case deadlineMethod(sel.Sel.Name):
					if prev, ok := setPos[obj]; !ok || call.Pos() < prev {
						setPos[obj] = call.Pos()
					}
				case sel.Sel.Name == "Read":
					risks = append(risks, risk{obj, call.Pos(), "Read"})
				}
				return true
			}
		}
		if f := calleeFunc(info, call); f != nil && len(call.Args) > 0 {
			if funcIn(f, "io") && (f.Name() == "ReadFull" || f.Name() == "ReadAtLeast") {
				if obj := connOf(call.Args[0]); obj != nil {
					risks = append(risks, risk{obj, call.Pos(), "io." + f.Name()})
				}
			}
			if funcIn(f, "bufio") && (f.Name() == "NewReader" || f.Name() == "NewReaderSize") {
				if obj := connOf(call.Args[0]); obj != nil {
					risks = append(risks, risk{obj, call.Pos(), "bufio reader wrap"})
				}
			}
		}
		return true
	})

	reported := map[types.Object]bool{}
	for _, r := range risks {
		if reported[r.obj] {
			continue
		}
		set, ok := setPos[r.obj]
		if ok && set < r.pos {
			continue
		}
		reported[r.obj] = true
		if !ok {
			p.Reportf(r.pos,
				"blocking %s on net.Conn without a deadline in this function; call SetReadDeadline or SetDeadline first", r.what)
			continue
		}
		p.Reportf(r.pos,
			"deadline on this net.Conn is set only after the first blocking %s; move SetReadDeadline/SetDeadline before it", r.what)
	}
}

// checkReadMessageDeadlines handles the ReadMessage shape: any call
// x.ReadMessage() where x's type also has SetReadDeadline needs a
// prior deadline call on the same rendered receiver chain.
func checkReadMessageDeadlines(p *Pass, fn *ast.FuncDecl) {
	info := p.Pkg.TypesInfo

	// All deadline-setting calls, keyed by rendered receiver chain.
	sets := map[string]token.Pos{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && deadlineMethod(sel.Sel.Name) {
			key := render(sel.X)
			if prev, ok := sets[key]; !ok || call.Pos() < prev {
				sets[key] = call.Pos()
			}
		}
		return true
	})

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "ReadMessage" {
			return true
		}
		t := info.TypeOf(sel.X)
		if t == nil || !hasMethod(t, "SetReadDeadline") || !hasMethod(t, "ReadMessage") {
			return true
		}
		if isNetConn(t) {
			return true // the net.Conn shape owns that case
		}
		set, ok := sets[render(sel.X)]
		if !ok || set >= call.Pos() {
			p.Reportf(call.Pos(),
				"ReadMessage on %s without a preceding SetReadDeadline in this function; every blocking read needs an idle deadline", render(sel.X))
		}
		return true
	})
}

package lint

import (
	"go/ast"
	"strings"
)

// obsPath is the observability package; obsReadMethods are its APIs
// that read metric state back out.
const obsPath = "repro/internal/obs"

var obsReadMethods = map[string]bool{
	"Value": true, "Snapshot": true, "Stat": true,
	"Count": true, "Sum": true, "Names": true,
}

// observeonlyAnalyzer enforces the instrumentation-never-changes-output
// invariant (DESIGN.md §8): library packages may record metrics
// (Inc/Add/Set/Observe/GaugeFunc) but must never read them back —
// Value/Snapshot/Stat and friends are reserved for obs itself, the
// cmd/ binaries, examples, and tests. A library that branches on a
// counter has turned observation into control flow, which is exactly
// how metrics-enabled runs stop being byte-identical.
//
// Every call that resolves to an obs-package read method is flagged,
// wherever the receiver came from (a package var, a parameter, a
// field), in function bodies and package-level initializers alike.
func observeonlyAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "observeonly",
		Doc:  "library packages may record metrics but must not read them back",
		Run: func(p *Pass) {
			path := p.Pkg.Path
			if path == obsPath || path == "repro/internal/lint" ||
				strings.HasPrefix(path, "repro/cmd/") ||
				strings.HasPrefix(path, "repro/examples/") {
				return
			}
			info := p.Pkg.TypesInfo
			for _, f := range p.Pkg.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					sel, ok := call.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					fObj := calleeFunc(info, call)
					if fObj == nil || !funcIn(fObj, obsPath) || !obsReadMethods[fObj.Name()] {
						return true
					}
					p.Reportf(call.Pos(),
						"%s.%s() reads metric state in library package %s; instrumentation is observe-only — reads belong to obs, cmd, and tests",
						render(sel.X), fObj.Name(), p.Pkg.Path)
					return true
				})
			}
		},
	}
}

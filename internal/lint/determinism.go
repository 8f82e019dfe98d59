package lint

import (
	"go/ast"
)

// deterministicPackages are the packages whose output must be a pure
// function of their inputs and seeds: the synthetic web generator, the
// measurement pipeline, and the WebSocket protocol layer. Table 1's
// byte-identical-resume property holds only while these stay free of
// wall-clock reads and unseeded randomness (DESIGN.md §9).
var deterministicPackages = map[string]bool{
	"repro/internal/webgen":      true,
	"repro/internal/analysis":    true,
	"repro/internal/labeler":     true,
	"repro/internal/inclusion":   true,
	"repro/internal/payload":     true,
	"repro/internal/content":     true,
	"repro/internal/wsproto":     true,
	"repro/internal/faultnet":    true,
	"repro/internal/fabric/wire": true,
	"repro/internal/jsonshape":   true,
	"repro/internal/colstore":    true,
}

// seededRandPackages is the weaker tier: packages that measure the
// wall clock on purpose (latency is their output) but whose *content*
// must still derive from explicit seeds. The load generator is the
// archetype — two runs with the same seed must put identical bytes on
// the wire even though their timing differs — so global math/rand
// draws are banned here exactly as in the deterministic tier, while
// time.Now/time.Since stay legal.
var seededRandPackages = map[string]bool{
	"repro/internal/loadgen": true,
	"repro/cmd/wsload":       true,
}

// onDemandSeedPackages build generators per page, per site or per
// connection and draw a handful of numbers from each. rand.NewSource
// fills a 607-word register up front (≈11 µs, 5.4 KB) — once a fifth
// of a study's CPU — so these packages seed through detrand.New, which
// yields the same stream and computes only the words drawn.
var onDemandSeedPackages = map[string]bool{
	"repro/internal/webgen":  true,
	"repro/internal/wsproto": true,
	"repro/internal/browser": true,
	"repro/internal/crawler": true,
	"repro/internal/loadgen": true,
}

// bannedRandFuncs are the math/rand package-level functions backed by
// the process-global, unseeded source. rand.New and type references
// (rand.Rand, rand.Source) stay legal: explicit seeding is exactly the
// sanctioned pattern.
var bannedRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true,
	"NormFloat64": true, "Perm": true, "Shuffle": true, "Read": true,
	"Seed": true,
}

// determinismAnalyzer forbids time.Now/time.Since and global math/rand
// draws inside the deterministic packages, and rand.NewSource inside
// the on-demand-seed packages.
func determinismAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "determinism",
		Doc:  "forbid wall-clock reads and unseeded randomness in the deterministic packages, and up-front rand.NewSource seeding on the per-page paths",
		Run: func(p *Pass) {
			deterministic := deterministicPackages[p.Pkg.Path]
			seededOnly := seededRandPackages[p.Pkg.Path]
			onDemandSeed := onDemandSeedPackages[p.Pkg.Path]
			if !deterministic && !seededOnly && !onDemandSeed {
				return
			}
			for _, f := range p.Pkg.Files {
				timeName := ""
				if deterministic {
					timeName = importName(f, "time")
				}
				randName := importName(f, "math/rand")
				if timeName == "" && randName == "" {
					continue
				}
				ast.Inspect(f, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					x, ok := sel.X.(*ast.Ident)
					if !ok {
						return true
					}
					isRand := randName != "" && x.Name == randName
					switch {
					case timeName != "" && x.Name == timeName &&
						(sel.Sel.Name == "Now" || sel.Sel.Name == "Since"):
						p.Reportf(sel.Pos(),
							"%s.%s in deterministic package %s; inject a seed or time through an obs span instead",
							x.Name, sel.Sel.Name, p.Pkg.Path)
					case isRand && onDemandSeed && sel.Sel.Name == "NewSource":
						p.Reportf(sel.Pos(),
							"%s.NewSource in %s seeds a 607-word register up front; use detrand.New (same stream, seeded on demand)",
							x.Name, p.Pkg.Path)
					case isRand && (deterministic || seededOnly) && bannedRandFuncs[sel.Sel.Name]:
						tier := "deterministic"
						if !deterministic {
							tier = "seeded-content"
						}
						p.Reportf(sel.Pos(),
							"global %s.%s in %s package %s; draw from an explicitly seeded *rand.Rand",
							x.Name, sel.Sel.Name, tier, p.Pkg.Path)
					}
					return true
				})
			}
		},
	}
}

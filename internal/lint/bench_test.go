package lint

// Lint-gate benchmarks (run once by ci's pkg-bench-smoke): the full
// typed pipeline — load, type-check the module from source, run all
// nine analyzers — and the syntax tier alone, so a type-check wall-time
// regression is attributable. The typed row must stay single-digit
// seconds: a gate slower than the suite it guards stops being run.

import "testing"

func BenchmarkLintModuleTyped(b *testing.B) {
	root, err := ModuleRoot(".")
	if err != nil {
		b.Fatalf("ModuleRoot: %v", err)
	}
	for i := 0; i < b.N; i++ {
		pkgs, err := LoadModuleTyped(root)
		if err != nil {
			b.Fatalf("LoadModuleTyped: %v", err)
		}
		if res := Run(pkgs, Suite()); len(res.Diagnostics) != 0 {
			b.Fatalf("module not lint-clean: %v", res.Diagnostics)
		}
	}
}

func BenchmarkLintModuleSyntax(b *testing.B) {
	root, err := ModuleRoot(".")
	if err != nil {
		b.Fatalf("ModuleRoot: %v", err)
	}
	for i := 0; i < b.N; i++ {
		pkgs, err := LoadModule(root)
		if err != nil {
			b.Fatalf("LoadModule: %v", err)
		}
		if res := Run(pkgs, Suite()); len(res.Diagnostics) != 0 {
			b.Fatalf("module not lint-clean: %v", res.Diagnostics)
		}
	}
}

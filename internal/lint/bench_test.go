package lint

// Lint-gate benchmark (run once by ci's pkg-bench-smoke): the whole
// pipeline — load, type-check the module from source, run every
// analyzer. It must stay single-digit seconds: a gate slower than the
// suite it guards stops being run.

import "testing"

func BenchmarkLintModuleTyped(b *testing.B) {
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

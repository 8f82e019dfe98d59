package lint

import "testing"

// TestRepoIsLintClean is the regression gate behind `make lint`: the
// full analyzer suite over the whole module must produce zero
// unsuppressed diagnostics. A change that reads the wall clock in a
// deterministic package, lets map order reach an encoder, branches on
// a metric, leaks a span, drops a read deadline, or touches a guarded
// field without its mutex fails here (and in CI) with the exact
// file:line; a package that does not type-check fails with its "load"
// diagnostics.
func TestRepoIsLintClean(t *testing.T) {
	pkgs := modulePackages(t)
	diags := Run(pkgs, pkgs, Suite()).Diagnostics
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Fatalf("%d unsuppressed lint diagnostic(s); fix them or add a justified //lint:allow pragma (DESIGN.md §9)", len(diags))
	}
}

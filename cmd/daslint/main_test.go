package main

import "testing"

// The driver loads through `go list -export`; linting real (and clean)
// packages end-to-end must succeed quietly. These are the packages with
// the most map ranges over simulated state.
func TestStandaloneCleanPackage(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes the go toolchain")
	}
	if code := run([]string{"../../internal/pfs", "../../internal/active", "../../internal/pipeline"}); code != 0 {
		t.Fatalf("run = exit %d, want 0", code)
	}
}

package lint_test

import (
	"testing"

	"github.com/hpcio/das/internal/lint"
	"github.com/hpcio/das/internal/lint/linttest"
)

// Each testdata package is type-checked under a chosen import path, so
// the fixtures can pose as simulated packages or allowlisted files of the
// real module.

func TestDetrand(t *testing.T) {
	linttest.Run(t, lint.Detrand, "detrand", lint.ModulePath+"/internal/fakerand")
}

func TestGoroutines(t *testing.T) {
	linttest.Run(t, lint.Goroutines, "goroutines", lint.ModulePath+"/internal/fakego")
}

func TestGoroutinesAllowlistedFile(t *testing.T) {
	// parallel.go is allowlisted for internal/kernels; shard.go in the
	// same package is not.
	linttest.Run(t, lint.Goroutines, "goroutines_allow", lint.ModulePath+"/internal/kernels")
}

func TestGoroutinesAllowlistIsPerPackage(t *testing.T) {
	// The same files under a different import path lose the allowlist:
	// parallel.go's go statements become findings too. Can't reuse the
	// want comments (they differ per path), so just count diagnostics.
	countDiagnostics(t, lint.Goroutines, "goroutines_allow", lint.ModulePath+"/internal/fakekernels", 2)
}

func TestGoroutinesCoroutinesOnlyInSim(t *testing.T) {
	// internal/sim may call iter.Pull (every Proc is a coroutine) but no
	// longer holds a blessed go statement; anywhere else iter.Pull is a
	// finding (see the goroutines fixture).
	linttest.Run(t, lint.Goroutines, "goroutines_sim", lint.ModulePath+"/internal/sim")
}

func countDiagnostics(t *testing.T, a *lint.Analyzer, dir, pkgpath string, want int) {
	t.Helper()
	diags := linttest.Diagnostics(t, a, dir, pkgpath)
	if len(diags) != want {
		t.Errorf("got %d diagnostics, want %d:", len(diags), want)
		for _, d := range diags {
			t.Errorf("  %s", d.Message)
		}
	}
}

package lint_test

import (
	"testing"

	"github.com/hpcio/das/internal/lint"
	"github.com/hpcio/das/internal/lint/linttest"
)

// Each testdata package is type-checked under a chosen import path, so
// the fixtures can pose as simulated packages, exempt packages, or
// allowlisted files of the real module.

func TestSimclock(t *testing.T) {
	linttest.Run(t, lint.Simclock, "simclock", lint.ModulePath+"/internal/fakesim")
}

func TestSimclockExemptPackage(t *testing.T) {
	// internal/trace is on the exemption list: same code, zero findings.
	linttest.Run(t, lint.Simclock, "simclock_exempt", lint.ModulePath+"/internal/trace")
}

func TestSimclockOutsideModule(t *testing.T) {
	// The same wall-clock calls in a non-internal package are fine too.
	linttest.Run(t, lint.Simclock, "simclock_exempt", lint.ModulePath+"/cmd/faketool")
}

func TestSimclockCoversControllerPackages(t *testing.T) {
	// The unified p99 controller and its quantile sketch are simulated
	// subsystems: byte-identical runs depend on them staying off the wall
	// clock, so neither package may ever join the exemption list. The
	// same fixture that fires in a simulated package must fire under
	// their import paths.
	linttest.Run(t, lint.Simclock, "simclock_controller", lint.ModulePath+"/internal/metrics")
	linttest.Run(t, lint.Simclock, "simclock_controller", lint.ModulePath+"/internal/control")
}

func TestSimclockCoversPipelinePackage(t *testing.T) {
	// The server-side operator pipeline replays byte-identically across
	// runs (the -pipeline experiment asserts it), which depends on every
	// timestamp coming from the simulated clock. The package may never
	// join the exemption list.
	linttest.Run(t, lint.Simclock, "simclock_controller", lint.ModulePath+"/internal/pipeline")
}

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

func TestBorrow(t *testing.T) {
	linttest.Run(t, lint.Borrow, "borrow", lint.ModulePath+"/internal/fakeborrow")
}

func TestAllowDirectives(t *testing.T) {
	linttest.Run(t, lint.Simclock, "allow", lint.ModulePath+"/internal/fakeallow")
}

func TestDirective(t *testing.T) {
	linttest.Run(t, lint.Directive, "directive", lint.ModulePath+"/internal/fakedir")
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

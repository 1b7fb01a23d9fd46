package lint_test

import (
	"testing"

	"github.com/hpcio/das/internal/lint"
	"github.com/hpcio/das/internal/lint/linttest"
)

// Each testdata package is type-checked under a chosen import path, so
// the fixtures can pose as packages of the real module.

func TestDetrand(t *testing.T) {
	linttest.Run(t, lint.Detrand, "detrand", lint.ModulePath+"/internal/fakerand")
}

func TestGoroutines(t *testing.T) {
	linttest.Run(t, lint.Goroutines, "goroutines", lint.ModulePath+"/internal/fakego")
}

func TestGoroutinesCoroutinesOnlyInSim(t *testing.T) {
	// internal/sim may call iter.Pull (every Proc is a coroutine) but no
	// longer holds a blessed go statement; anywhere else iter.Pull is a
	// finding (see the goroutines fixture).
	linttest.Run(t, lint.Goroutines, "goroutines_sim", lint.ModulePath+"/internal/sim")
}

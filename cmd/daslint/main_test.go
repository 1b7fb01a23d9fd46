package main

import (
	"strings"
	"testing"

	"github.com/hpcio/das/internal/lint"
)

func TestListAnalyzers(t *testing.T) {
	var sb strings.Builder
	listAnalyzers(&sb)
	out := sb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if got, want := len(lines), len(lint.All()); got != want {
		t.Fatalf("listed %d analyzers, want %d:\n%s", got, want, out)
	}
	for _, a := range lint.All() {
		if !strings.Contains(out, a.Name) {
			t.Errorf("missing analyzer %q in -list output:\n%s", a.Name, out)
		}
		if a.Summary() == "" {
			t.Errorf("analyzer %q has an empty one-line doc", a.Name)
		}
	}
}

// The standalone driver loads through `go list -export`; linting the real
// (and clean) pool packages end-to-end must succeed quietly. core rides
// along because the transfer analyzer only sees the packages it is given:
// grid.GetFloats hands its slice to the caller, and the caller that puts
// it back (the TS worker) lives there.
func TestStandaloneCleanPackage(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes the go toolchain")
	}
	if code := runStandalone([]string{"../../internal/bufpool", "../../internal/grid", "../../internal/core"}, false); code != 0 {
		t.Fatalf("runStandalone = exit %d, want 0", code)
	}
}

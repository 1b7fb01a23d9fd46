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

// The standalone driver loads through `go list -export`; linting real (and
// clean) packages end-to-end must succeed quietly. These are the packages
// the borrow rule's obligations live in: pfs lends the store's windows,
// active and pipeline read them in place. None carries a //das:allow, so a
// stale one added there fails here too.
func TestStandaloneCleanPackage(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes the go toolchain")
	}
	if code := runStandalone([]string{"../../internal/pfs", "../../internal/active", "../../internal/pipeline"}, false); code != 0 {
		t.Fatalf("runStandalone = exit %d, want 0", code)
	}
}

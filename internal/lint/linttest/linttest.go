// Package linttest is an analysistest-style golden harness for the
// daslint analyzers, built on the standard library (the build environment
// is offline, so x/tools' analysistest is not available).
//
// A test package lives in internal/lint/testdata/src/<dir>; every .go
// file in the directory is parsed and type-checked as one package whose
// import path the test chooses — analyzer scoping rules (simulated
// packages, file allowlists) key on that path, so testdata can pose as
// any package in the module. Expected findings are `// want "regexp"`
// comments on the offending line; several quoted regexps may follow one
// want. Run fails the test for any unmatched want or unexpected
// diagnostic.
//
// Imports resolve through go/importer's source importer, so testdata may
// import both the standard library and real packages of this module
// (internal/sim, internal/bufpool, ...) to exercise type-based matching
// against the genuine article.
//
// Multi-package fixtures for the module-wide analyzers live under
// internal/lint/testdata/mod/<mod>/<subdir>; RunModule type-checks each
// subdirectory as its own package and runs the CheckModule pipeline over
// the lot, so reply obligations can cross package boundaries exactly as
// they do in the real module.
package linttest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/hpcio/das/internal/lint"
)

// The fileset and source importer are shared by every Run in the test
// process: the importer memoizes type-checked packages, so the cost of
// importing internal/sim from source is paid once.
var (
	sharedMu   sync.Mutex
	sharedFset = token.NewFileSet()
	sharedImp  types.Importer
)

func sourceImporter() types.Importer {
	if sharedImp == nil {
		sharedImp = importer.ForCompiler(sharedFset, "source", nil)
	}
	return sharedImp
}

// Run type-checks testdata/src/<dir> as a package with import path
// pkgpath, runs exactly the given analyzer over it through the same
// Check pipeline the daslint driver uses (suppression directives
// included), and compares diagnostics against the // want comments.
func Run(t *testing.T, a *lint.Analyzer, dir, pkgpath string) {
	t.Helper()
	fset, files, diags := check(t, a, dir, pkgpath)
	wants := collectWants(t, fset, files)
	matchDiagnostics(t, fset, wants, diags)
}

// Diagnostics runs the analyzer over testdata/src/<dir> as pkgpath and
// returns the raw diagnostics, ignoring want comments — for tests that
// re-check a fixture under a different import path, where the annotated
// expectations no longer apply.
func Diagnostics(t *testing.T, a *lint.Analyzer, dir, pkgpath string) []lint.Diagnostic {
	t.Helper()
	_, _, diags := check(t, a, dir, pkgpath)
	return diags
}

// RunModule type-checks a multi-package fixture module and runs the full
// CheckModule pipeline — per-package analyzers, module analyzers, and the
// stale-directive check — over all of it, comparing against the // want
// comments of every file. The fixture lives under testdata/mod/<mod>;
// pkgs lists [subdir, importpath] pairs in dependency order, so later
// packages may import earlier ones by their declared import paths (other
// imports fall through to the source importer, as in Run). This is the
// harness for the interprocedural analyzers, whose findings only exist
// when a hand-off or reply obligation crosses package boundaries.
func RunModule(t *testing.T, analyzers []*lint.Analyzer, mod string, pkgs [][2]string) {
	t.Helper()
	sharedMu.Lock()
	defer sharedMu.Unlock()

	root := filepath.Join(testdataDir(t), "mod", mod)
	local := make(map[string]*types.Package)
	imp := &layeredImporter{local: local}
	var lpkgs []*lint.Package
	var allFiles []*ast.File
	for _, pd := range pkgs {
		subdir, pkgpath := pd[0], pd[1]
		dir := filepath.Join(root, subdir)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var files []*ast.File
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			f, err := parser.ParseFile(sharedFset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		if len(files) == 0 {
			t.Fatalf("no Go files in %s", dir)
		}
		info := lint.NewTypesInfo()
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(pkgpath, sharedFset, files, info)
		if err != nil {
			t.Fatalf("type-checking %s/%s: %v", mod, subdir, err)
		}
		local[pkgpath] = tpkg
		lpkgs = append(lpkgs, &lint.Package{Fset: sharedFset, Files: files, Types: tpkg, Info: info})
		allFiles = append(allFiles, files...)
	}
	diags, err := lint.CheckModule(lpkgs, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	wants := collectWants(t, sharedFset, allFiles)
	matchDiagnostics(t, sharedFset, wants, diags)
}

// layeredImporter resolves the fixture module's own packages by their
// declared import paths and everything else through the shared source
// importer.
type layeredImporter struct {
	local map[string]*types.Package
}

func (l *layeredImporter) Import(path string) (*types.Package, error) {
	if p, ok := l.local[path]; ok {
		return p, nil
	}
	return sourceImporter().Import(path)
}

func check(t *testing.T, a *lint.Analyzer, dir, pkgpath string) (*token.FileSet, []*ast.File, []lint.Diagnostic) {
	t.Helper()
	sharedMu.Lock()
	defer sharedMu.Unlock()

	root := filepath.Join(testdataDir(t), "src", dir)
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(sharedFset, filepath.Join(root, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("no Go files in %s", root)
	}

	info := lint.NewTypesInfo()
	conf := types.Config{Importer: sourceImporter()}
	tpkg, err := conf.Check(pkgpath, sharedFset, files, info)
	if err != nil {
		t.Fatalf("type-checking %s: %v", dir, err)
	}
	pkg := &lint.Package{Fset: sharedFset, Files: files, Types: tpkg, Info: info}
	diags, err := lint.Check(pkg, []*lint.Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	return sharedFset, files, diags
}

// testdataDir locates internal/lint/testdata relative to this source
// file, so the harness works regardless of the test's working directory.
func testdataDir(t *testing.T) string {
	t.Helper()
	_, thisFile, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("cannot locate linttest source file")
	}
	return filepath.Join(filepath.Dir(thisFile), "..", "testdata")
}

// A want is one expected-diagnostic regexp anchored to a file:line.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

var wantRE = regexp.MustCompile(`(?:\x60([^\x60]*)\x60)|("(?:[^"\\]|\\.)*")`)

// collectWants parses `// want "re" "re"...` comments. Both quoted and
// backquoted regexps are accepted.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*want {
	t.Helper()
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				// The marker may open the comment (`// want "..."`) or
				// trail inside one, which is how a line that is itself a
				// comment — a das: directive — carries an expectation.
				idx := strings.Index(c.Text, "// want ")
				if idx < 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				rest := c.Text[idx+len("// want"):]
				found := false
				for _, m := range wantRE.FindAllStringSubmatch(rest, -1) {
					pat := m[1]
					if m[2] != "" {
						unq, err := strconv.Unquote(m[2])
						if err != nil {
							t.Fatalf("%s: bad want pattern %s: %v", pos, m[2], err)
						}
						pat = unq
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, pat, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re, raw: pat})
					found = true
				}
				if !found {
					t.Fatalf("%s: want comment with no patterns", pos)
				}
			}
		}
	}
	return wants
}

func matchDiagnostics(t *testing.T, fset *token.FileSet, wants []*want, diags []lint.Diagnostic) {
	t.Helper()
	var unexpected []string
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if w.matched || w.file != pos.Filename || w.line != pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			unexpected = append(unexpected, fmt.Sprintf("%s: [%s] %s", pos, d.Analyzer, d.Message))
		}
	}
	sort.Strings(unexpected)
	for _, u := range unexpected {
		t.Errorf("unexpected diagnostic:\n  %s", u)
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("no diagnostic at %s:%d matching %q", w.file, w.line, w.raw)
		}
	}
}

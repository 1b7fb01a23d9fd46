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
// pkgpath, runs the given analyzer over it through the same Check the
// daslint driver uses, and compares diagnostics against the // want
// comments.
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
	return sharedFset, files, lint.Check(pkg, []*lint.Analyzer{a})
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

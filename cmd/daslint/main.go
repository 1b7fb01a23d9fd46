// Command daslint runs the determinism/ownership analyzer suite from
// internal/lint over this repository.
//
// Usage:
//
//	daslint ./...                # standalone: lint the given packages
//	daslint -list                # print analyzer names and one-line docs
//	go vet -vettool=$(which daslint) ./...   # as a vet tool
//
// Both modes run the same analyzers through one lint.Check per package,
// stale-directive check included. Standalone mode loads packages through
// `go list -export`, so it needs only the go toolchain, and is the mode
// with -json output. The binary also speaks the `go vet -vettool` driver
// protocol (-V=full, -flags, and a *.cfg compilation unit), which
// additionally covers _test.go files.
//
// -json prints findings as one JSON object per line on stdout (file,
// line, col, analyzer, message). When GITHUB_ACTIONS=true, findings are
// additionally emitted as ::error workflow annotations so CI attaches
// them to the offending lines.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"

	"github.com/hpcio/das/internal/cli"
	"github.com/hpcio/das/internal/lint"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("daslint: ")
	flag.Var(versionFlag{}, "V", "print version and exit (-V=full, for the go vet protocol)")
	printflags := flag.Bool("flags", false, "print analyzer flags in JSON (for the go vet protocol)")
	list := flag.Bool("list", false, "print analyzer names and one-line docs, then exit")
	jsonOut := flag.Bool("json", false, "print findings as JSON lines on stdout instead of text on stderr")
	flag.Parse()

	if *printflags {
		printFlagsJSON()
		return
	}
	args := flag.Args()
	if err := cli.CheckExclusive(
		[]cli.Flag{{Name: "-list", Set: *list}},
		[]cli.Flag{{Name: "package arguments", Set: len(args) > 0}},
	); err != nil {
		log.Fatal(err)
	}
	if *list {
		listAnalyzers(os.Stdout)
		return
	}
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(runVetUnit(args[0]))
	}
	if len(args) == 0 {
		args = []string{"./..."}
	}
	os.Exit(runStandalone(args, *jsonOut))
}

func listAnalyzers(w io.Writer) {
	for _, a := range lint.All() {
		fmt.Fprintf(w, "%-12s %s\n", a.Name, a.Summary())
	}
}

func runStandalone(patterns []string, jsonOut bool) int {
	pkgs, err := lint.Load(".", patterns...)
	if err != nil {
		log.Print(err)
		return 1
	}
	code := 0
	for _, pkg := range pkgs {
		diags, err := lint.Check(pkg, lint.All())
		if err != nil {
			log.Print(err)
			return 1
		}
		if len(diags) > 0 {
			printDiagnostics(pkg.Fset, diags, jsonOut)
			code = 1
		}
	}
	return code
}

// printDiagnostics writes findings as text on stderr or, with jsonOut, as
// JSON lines on stdout, adding workflow annotations under GitHub Actions.
func printDiagnostics(fset *token.FileSet, diags []lint.Diagnostic, jsonOut bool) {
	annotate := os.Getenv("GITHUB_ACTIONS") == "true"
	enc := json.NewEncoder(os.Stdout)
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		if jsonOut {
			enc.Encode(jsonDiag{
				File:     relPath(pos.Filename),
				Line:     pos.Line,
				Col:      pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		} else {
			fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", pos, d.Analyzer, d.Message)
		}
		if annotate {
			// GitHub Actions workflow command: attaches the finding to the
			// line in the PR diff view.
			fmt.Printf("::error file=%s,line=%d,col=%d,title=daslint/%s::%s\n",
				relPath(pos.Filename), pos.Line, pos.Column, d.Analyzer, escapeAnnotation(d.Message))
		}
	}
}

// jsonDiag is the -json wire form of one finding.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// relPath makes filename relative to the working directory when possible;
// GitHub annotations and -json consumers want repo-relative paths.
func relPath(filename string) string {
	wd, err := os.Getwd()
	if err != nil {
		return filename
	}
	rel, err := filepath.Rel(wd, filename)
	if err != nil || strings.HasPrefix(rel, "..") {
		return filename
	}
	return rel
}

// escapeAnnotation encodes the characters the workflow-command grammar
// reserves in message data.
func escapeAnnotation(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

// printFlagsJSON tells go vet which flags this tool accepts, in the
// format the go command expects from a vet tool.
func printFlagsJSON() {
	type jsonFlag struct {
		Name  string
		Bool  bool
		Usage string
	}
	var flags []jsonFlag
	flag.VisitAll(func(f *flag.Flag) {
		b, ok := f.Value.(interface{ IsBoolFlag() bool })
		flags = append(flags, jsonFlag{f.Name, ok && b.IsBoolFlag(), f.Usage})
	})
	data, err := json.MarshalIndent(flags, "", "\t")
	if err != nil {
		log.Fatal(err)
	}
	os.Stdout.Write(data)
}

// versionFlag implements the -V=full handshake go vet uses to fingerprint
// a vet tool for its build cache: print a version line that changes when
// the executable does.
type versionFlag struct{}

func (versionFlag) IsBoolFlag() bool { return true }
func (versionFlag) String() string   { return "" }

func (versionFlag) Set(s string) error {
	if s != "full" {
		log.Fatalf("unsupported flag value: -V=%s (use -V=full)", s)
	}
	exe, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Open(exe)
	if err != nil {
		log.Fatal(err)
	}
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		log.Fatal(err)
	}
	f.Close()
	fmt.Printf("daslint version devel comments-go-here buildID=%02x\n", string(h.Sum(nil)))
	os.Exit(0)
	return nil
}

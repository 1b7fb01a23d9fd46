// Command daslint runs the analyzer suite from internal/lint over this
// repository.
//
// Usage:
//
//	daslint [packages]    # default ./...
//
// It loads the packages through `go list -export`, so it needs only the go
// toolchain, and prints each finding as `file:line:col: [analyzer]
// message` on stderr, exiting 1 if there is any. It takes no flags.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"github.com/hpcio/das/internal/lint"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("daslint: ")
	flag.Usage = func() {
		fmt.Fprintln(flag.CommandLine.Output(), "usage: daslint [packages]")
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	os.Exit(run(patterns))
}

// run lints the packages matching patterns and returns the exit code.
func run(patterns []string) int {
	pkgs, err := lint.Load(".", patterns...)
	if err != nil {
		log.Print(err)
		return 1
	}
	code := 0
	for _, pkg := range pkgs {
		for _, d := range lint.Check(pkg, lint.All()) {
			fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", pkg.Fset.Position(d.Pos), d.Analyzer, d.Message)
			code = 1
		}
	}
	return code
}

// Command dasbench regenerates the paper's evaluation: every figure and
// table of §IV, the ablations described in DESIGN.md, and the fault and
// adaptive-stack experiments. By default it runs the paper-mirroring
// configuration (24–60 GB datasets scaled 1 GB → 1 MiB, 24–60 nodes);
// -quick runs the reduced configuration smoke tests and CI use.
//
// Usage:
//
//	dasbench                        # everything, text tables
//	dasbench -exp fig12             # one experiment
//	dasbench -exp fig10,fig11       # several
//	dasbench -exp ablations         # the nine ablations
//	dasbench -quick                 # reduced sizes, nodes, rounds and streams
//	dasbench -json BENCH_sim.json   # also write the records of what -exp ran
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/hpcio/das/internal/experiments"
)

func main() { os.Exit(dasbench(os.Args[1:], os.Stdout, os.Stderr)) }

// dasbench is the command: it parses args, runs, and returns the exit code.
func dasbench(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("dasbench", flag.ContinueOnError)
	flags.SetOutput(stderr)
	exp := flags.String("exp", "all", "experiments to run, comma-separated: all, ablations, tableI, or any of "+strings.Join(experimentIDs(), ", "))
	quick := flags.Bool("quick", false, "reduced configuration (2-4 GB, 8-16 nodes, fewer rounds and tenant streams) for smoke testing")
	nodes := flags.Int("nodes", 0, "override the default node count")
	jsonPath := flags.String("json", "", "write the records of the experiments that ran — simulated clock and counts only — to this file (e.g. BENCH_sim.json)")
	if err := flags.Parse(args); err != nil {
		return 2
	}

	cfg := experiments.Default()
	if *quick {
		cfg = experiments.Quick()
	}
	if *nodes != 0 {
		cfg.Nodes = *nodes
	}
	if err := run(stdout, cfg, *exp, *jsonPath); err != nil {
		fmt.Fprintln(stderr, "dasbench:", err)
		return 1
	}
	return 0
}

func experimentIDs() []string {
	var ids []string
	for _, e := range experiments.Experiments() {
		ids = append(ids, e.ID)
	}
	return ids
}

// run executes the named experiments in order, prints each result, and
// writes the distinct records behind them to jsonPath when it is set.
func run(w io.Writer, cfg experiments.Config, names string, jsonPath string) error {
	// Every name resolves before anything runs; nil stands for Table I,
	// which measures nothing.
	var todo []*experiments.Experiment
	for _, name := range strings.Split(strings.ToLower(names), ",") {
		if name == "all" || name == "tablei" {
			todo = append(todo, nil)
			if name != "all" {
				continue
			}
		}
		selected, err := experiments.Select(name)
		if err != nil {
			return err
		}
		for i := range selected {
			todo = append(todo, &selected[i])
		}
	}

	var records []experiments.Record
	seen := make(map[string]bool)
	for _, e := range todo {
		if e == nil {
			fmt.Fprintln(w, experiments.TableI())
			continue
		}
		r, recs, err := cfg.Execute(*e)
		if err != nil {
			return err
		}
		for _, rec := range recs {
			if !seen[rec.Name] {
				seen[rec.Name] = true
				records = append(records, rec)
			}
		}
		fmt.Fprintln(w, r.Table())
	}
	if jsonPath == "" {
		return nil
	}
	if err := writeRecords(jsonPath, records); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s (%d records)\n", jsonPath, len(records))
	return nil
}

// writeRecords writes one record per line inside a JSON array, so the
// golden file diffs by cell.
func writeRecords(path string, records []experiments.Record) error {
	var b bytes.Buffer
	b.WriteString("[\n")
	for i, rec := range records {
		line, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		b.Write(line)
		if i < len(records)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("]\n")
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// Command dastrace runs one operation under a chosen scheme with the
// event recorder attached and prints where the time went: a per-actor
// phase summary and, with -full, the complete timeline. It makes the
// difference between the schemes visible at a glance — NAS servers
// dominated by "fetch" and the "stall" it causes, DAS servers by "compute"
// with their reads and writes hidden behind it, TS workers by "read" and
// "write-back". A storage server's stages overlap, and so do a TS
// worker's, so each stage is an actor of its own (server-N/read, /compute,
// /write, /forward; ts-worker-N/read, /compute, /write), stalls recorded
// on the compute lane. The run is a cell of the evaluation
// (experiments.Config.Cell): the same raster, placement and platform the
// figures measure.
//
// Usage:
//
//	dastrace -scheme NAS -op flow-routing -size-gb 4
//	dastrace -scheme DAS -op gaussian-filter -full
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/hpcio/das/internal/experiments"
	"github.com/hpcio/das/internal/trace"
)

func main() {
	schemeName := flag.String("scheme", "DAS", "scheme: TS, NAS, or DAS")
	op := flag.String("op", "flow-routing", "operator to run")
	sizeGB := flag.Int("size-gb", 4, "dataset size in simulated GB (1 GB = 1 MiB)")
	nodes := flag.Int("nodes", 8, "total node count (half compute, half storage)")
	full := flag.Bool("full", false, "print the full event timeline, not just the summary")
	flag.Parse()

	if err := run(os.Stdout, *schemeName, *op, *sizeGB, *nodes, *full); err != nil {
		fmt.Fprintln(os.Stderr, "dastrace:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, schemeName, op string, sizeGB, nodes int, full bool) error {
	scheme, err := experiments.ParseScheme(schemeName)
	if err != nil {
		return err
	}
	cfg := experiments.Default()
	rec := trace.New(0)
	var placed string
	// Attach the recorder only for the operation itself, not the ingest.
	result, err := cfg.RunLive(cfg.Cell(scheme, op, sizeGB, nodes), func(l *experiments.Live) {
		if m, ok := l.FS.Meta("input"); ok {
			placed = m.Layout.Name()
		}
		l.Clu.Trace = rec
	}, nil)
	if err != nil {
		return err
	}
	step := result.Steps[0]
	fmt.Fprintf(w, "%s %s over %d GB on %d nodes: %v (offloaded=%v, layout=%s)\n\n",
		scheme, op, sizeGB, nodes, step.SimTime(), step.Offloaded, placed)
	fmt.Fprintln(w, rec.SummaryTable())
	if full {
		fmt.Fprintln(w, rec.Timeline())
	} else {
		fmt.Fprintf(w, "(%d events recorded; -full prints the timeline)\n", rec.Len())
	}
	return nil
}

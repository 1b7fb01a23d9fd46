package main

import (
	"bytes"
	"strings"
	"testing"

	"github.com/hpcio/das/internal/core"
	"github.com/hpcio/das/internal/experiments"
)

// TestTraceRunsTheFigureCell: the run dastrace traces is the evaluation's
// own cell — imagery for the filters, not terrain — so the execution time
// it prints for gaussian-filter under DAS is Fig. 11's, to the nanosecond.
func TestTraceRunsTheFigureCell(t *testing.T) {
	c := experiments.Quick()
	cell := c.Cell(core.DAS, "gaussian-filter", c.SizesGB[0], c.Nodes)
	if !cell.Image {
		t.Fatal("the gaussian cell is not evaluated on imagery")
	}
	want, err := c.Run(cell)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(&out, "das", "gaussian-filter", c.SizesGB[0], c.Nodes, false); err != nil {
		t.Fatal(err)
	}
	first, _, _ := strings.Cut(out.String(), "\n")
	if !strings.Contains(first, ": "+want.Steps[0].SimTime().String()+" (offloaded=true") {
		t.Errorf("dastrace printed %q, Fig. 11's cell took %v", first, want.Steps[0].SimTime())
	}
	if !strings.Contains(out.String(), "compute") {
		t.Errorf("no phase summary:\n%s", out.String())
	}
	if err := run(&out, "XS", "gaussian-filter", 2, 8, false); err == nil {
		t.Error("unknown scheme accepted")
	}
}

package predict

import (
	"strings"
	"testing"

	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/sim"
)

// pipeParams: 4-element strips (32 bytes), 16 elements total.
func pipeParams() Params {
	return Params{ElemSize: 8, StripSize: 32, FileSize: 128, Width: 4, OutputFactor: 1}
}

// Hand-checked lower bound: round-robin D=2 over 4 strips cuts at
// elements 4, 8, 12; a (back=2, fwd=5) cone moves 2+5 across the first
// two cuts and 2+min(5, 16-12)=2+4 across the last.
func TestPipelineLowerBoundExactEdgeClamp(t *testing.T) {
	lb, err := PipelineLowerBound(pipeParams(), layout.NewRoundRobin(2), 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(8 * (7 + 7 + 6)); lb != want {
		t.Fatalf("lower bound = %d, want %d", lb, want)
	}
}

// Grouped layouts cut only at group boundaries, so the bound shrinks with
// the cut count, and one server (no cuts) bounds at zero.
func TestPipelineLowerBoundFollowsCuts(t *testing.T) {
	p := Params{ElemSize: 8, StripSize: 32, FileSize: 256, Width: 4, OutputFactor: 1} // 8 strips
	rr, err := PipelineLowerBound(p, layout.NewRoundRobin(2), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	grouped, err := PipelineLowerBound(p, layout.NewGroupedReplicated(2, 2, 1), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rr != 7*2*8 || grouped != 3*2*8 {
		t.Fatalf("bounds = rr %d, grouped %d; want 112 and 48", rr, grouped)
	}
	single, err := PipelineLowerBound(p, layout.NewRoundRobin(1), 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	if single != 0 {
		t.Fatalf("single-server bound = %d, want 0", single)
	}
}

func chainSpec() PipelineSpec {
	return PipelineSpec{
		Stages: []PipelineStage{
			{Name: "a", Back: 2, Fwd: 2},
			{Name: "b", Back: 2, Fwd: 2},
			{Name: "c", Back: 2, Fwd: 2},
			{Name: "r", Reduce: true},
		},
		PrefixLen:  1,
		PrefixBack: 2, PrefixFwd: 2,
		DAGBack: 6, DAGFwd: 6,
	}
}

func TestDecidePipelinePricesStagesAndFusesZeroReach(t *testing.T) {
	p := pipeParams()
	lay := layout.NewRoundRobin(2) // cuts at 4, 8, 12
	d, err := Estimate(chainSpec(), p, lay, Observations{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Stages != 4 || d.FusedStages != 1 {
		t.Fatalf("stages = %d fused = %d, want 4 and 1 (the zero-reach reduce)", d.Stages, d.FusedStages)
	}
	// No local halo on round-robin: the prefix fetches its full band.
	if want := int64(3 * 4 * 8); d.FetchBytes != want {
		t.Fatalf("fetch bytes = %d, want %d", d.FetchBytes, want)
	}
	// Stages b and c each exchange (2+2)·8 across three cuts.
	if want := int64(2 * 3 * 4 * 8); d.ExchangeBytes != want {
		t.Fatalf("exchange bytes = %d, want %d", d.ExchangeBytes, want)
	}
	if d.OutputReplicaBytes != 0 {
		t.Fatalf("round-robin writeback replicas = %d", d.OutputReplicaBytes)
	}
	// Normal I/O: three raster passes at 2×128 plus the reduce's read.
	if want := int64(3*256 + 128); d.NormalNetBytes != want {
		t.Fatalf("normal bytes = %d, want %d", d.NormalNetBytes, want)
	}
	if !d.Offload || !d.BeatsPerPass {
		t.Fatalf("small-halo chain should win outright: %+v", d)
	}
	if d.LowerBoundBytes <= 0 || d.FetchBytes+d.ExchangeBytes < d.LowerBoundBytes {
		t.Fatalf("achieved estimate %d below lower bound %d", d.FetchBytes+d.ExchangeBytes, d.LowerBoundBytes)
	}
}

// Under a replicated layout the fused prefix's halo is already local and
// per-pass offload pays replica writeback per intermediate, so the
// pipeline's margin widens.
func TestDecidePipelineReplicatedLayoutDiscountsPrefix(t *testing.T) {
	p := Params{ElemSize: 8, StripSize: 32, FileSize: 256, Width: 4, OutputFactor: 1}
	lay := layout.NewGroupedReplicated(2, 2, 1) // halo = 1 strip = 4 elems
	spec := chainSpec()
	spec.PrefixLen = 2 // two stages fused: composed reach 4 ≤ local halo 4
	spec.PrefixBack, spec.PrefixFwd = 4, 4
	d, err := Estimate(spec, p, lay, Observations{})
	if err != nil {
		t.Fatal(err)
	}
	if d.FetchBytes != 0 {
		t.Fatalf("replicated halo should zero the prefix fetch, got %d", d.FetchBytes)
	}
	if d.FusedStages != 2 {
		t.Fatalf("fused stages = %d, want 2 (prefix mate + reduce)", d.FusedStages)
	}
	// Only stage c exchanges now.
	if want := int64(3 * 4 * 8); d.ExchangeBytes != want {
		t.Fatalf("exchange bytes = %d, want %d", d.ExchangeBytes, want)
	}
	if d.OutputReplicaBytes <= 0 {
		t.Fatal("replicated layout must charge writeback replicas")
	}
	if d.PerPassNetBytes <= d.OffloadNetBytes {
		t.Fatalf("per-pass (%d) should cost more than pipelined (%d): intermediates replicate",
			d.PerPassNetBytes, d.OffloadNetBytes)
	}
	if !d.Offload || !d.BeatsPerPass {
		t.Fatalf("DAS pipeline should win: %+v", d)
	}
}

func TestDecidePipelineCacheDiscountAndTailCap(t *testing.T) {
	p := pipeParams()
	lay := layout.NewRoundRobin(2)
	warm, err := Estimate(chainSpec(), p, lay, Observations{HitFrac: 1})
	if err != nil {
		t.Fatal(err)
	}
	if warm.FetchBytes != 0 {
		t.Fatalf("full cache hit should zero fetch bytes, got %d", warm.FetchBytes)
	}

	const latHigh = 500 * sim.Microsecond
	at, err := Estimate(chainSpec(), p, lay, Observations{FetchP99: 4 * latHigh, LatencyHigh: latHigh})
	if err != nil {
		t.Fatal(err)
	}
	above, err := Estimate(chainSpec(), p, lay, Observations{FetchP99: 4*latHigh + 1, LatencyHigh: latHigh})
	if err != nil {
		t.Fatal(err)
	}
	if at.OffloadNetBytes != above.OffloadNetBytes || at.Offload != above.Offload {
		t.Fatalf("×4 cap boundary diverges: %d/%v vs %d/%v",
			at.OffloadNetBytes, at.Offload, above.OffloadNetBytes, above.Offload)
	}
	cold, err := Estimate(chainSpec(), p, lay, Observations{})
	if err != nil {
		t.Fatal(err)
	}
	if want := cold.OutputReplicaBytes + 4*(cold.FetchBytes+cold.ExchangeBytes); at.OffloadNetBytes != want {
		t.Fatalf("capped inflation = %d, want exactly 4× moving bytes = %d", at.OffloadNetBytes, want)
	}
	if !strings.Contains(at.Reason, "inflates") {
		t.Fatalf("Reason = %q", at.Reason)
	}
}

func TestDecidePipelineValidation(t *testing.T) {
	p := pipeParams()
	lay := layout.NewRoundRobin(2)
	if _, err := Estimate(PipelineSpec{}, p, lay, Observations{}); err == nil {
		t.Error("empty spec accepted")
	}
	spec := chainSpec()
	spec.PrefixLen = 0
	if _, err := Estimate(spec, p, lay, Observations{}); err == nil {
		t.Error("zero prefix accepted")
	}
	spec.PrefixLen = 9
	if _, err := Estimate(spec, p, lay, Observations{}); err == nil {
		t.Error("oversized prefix accepted")
	}
}

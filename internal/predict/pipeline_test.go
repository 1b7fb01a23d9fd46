package predict

import (
	"strings"
	"testing"

	"github.com/hpcio/das/internal/cluster"
	"github.com/hpcio/das/internal/layout"
)

// pipeParams: 4-element strips (32 bytes), 16 elements total.
func pipeParams() Params {
	return Params{ElemSize: 8, StripSize: 32, FileSize: 128, Width: 4, OutputFactor: 1}
}

func bound(p Params, lay layout.Layout, back, fwd int64) int64 {
	lc := layout.NewLocator(p.ElemSize, p.StripSize, lay)
	runs, _ := assignmentRuns(lc, p.FileSize, nil)
	return lowerBound(lc, p, runs, back, fwd)
}

// Hand-checked lower bound: round-robin D=2 over 4 strips of 4 elements,
// each strip a run. A (back=2, fwd=5) cone reaches, per run: strip 0
// forward 4 elements of strip 1 and 1 of strip 2 — its own server's, not
// moved; strip 1 back 2 and forward 4 + 1 (strip 3, its own); strip 2
// back 2 and forward 4 (clamped at the file end); strip 3 back 2.
func TestPipelineLowerBoundExactEdgeClamp(t *testing.T) {
	lb := bound(pipeParams(), layout.NewRoundRobin(2), 2, 5)
	if want := int64(8 * (4 + 6 + 6 + 2)); lb != want {
		t.Fatalf("lower bound = %d, want %d", lb, want)
	}
}

// Grouped layouts cut only at group boundaries, so the bound shrinks with
// the cut count, and one server (no cuts) bounds at zero.
func TestPipelineLowerBoundFollowsCuts(t *testing.T) {
	p := Params{ElemSize: 8, StripSize: 32, FileSize: 256, Width: 4, OutputFactor: 1} // 8 strips
	rr := bound(p, layout.NewRoundRobin(2), 1, 1)
	grouped := bound(p, layout.NewGroupedReplicated(2, 2, 1), 1, 1)
	if rr != 7*2*8 || grouped != 3*2*8 {
		t.Fatalf("bounds = rr %d, grouped %d; want 112 and 48", rr, grouped)
	}
	if single := bound(p, layout.NewRoundRobin(1), 100, 100); single != 0 {
		t.Fatalf("single-server bound = %d, want 0", single)
	}
}

// chainSpec is three stages of reach 2 and a reduce, with the schedule
// of each fusion depth: round 0 reads the input as deep as the prefix's
// halos sum, every later stage pulls its parent's band.
func chainSpec() PipelineSpec {
	spec := PipelineSpec{
		Stages: []PipelineStage{
			{Name: "a", Back: 2, Fwd: 2},
			{Name: "b", Back: 2, Fwd: 2},
			{Name: "c", Back: 2, Fwd: 2},
			{Name: "r", Reduce: true},
		},
		DAGBack: 6, DAGFwd: 6,
		Platform: cluster.Default(),
	}
	for depth := 1; depth <= 3; depth++ {
		round0 := PipelineRound{Input: int64(2 * depth)}
		for i := 0; i < depth; i++ {
			round0.Evals = append(round0.Evals, PipelineEval{Weight: 1, Need: int64(2 * (depth - 1 - i))})
		}
		rounds := []PipelineRound{round0}
		for i := depth; i < 3; i++ {
			rounds = append(rounds, PipelineRound{Input: -1, Pulls: []int64{2}, Evals: []PipelineEval{{Weight: 1}}})
		}
		last := &rounds[len(rounds)-1]
		last.Evals = append(last.Evals, PipelineEval{Weight: 0.5})
		spec.Depths = append(spec.Depths, rounds)
	}
	return spec
}

func TestDecidePipelinePricesStagesAndFusesZeroReach(t *testing.T) {
	p := pipeParams()
	lay := layout.NewRoundRobin(2) // every strip a run of its own
	d, err := Estimate(chainSpec(), p, lay, Observations{})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Depths) != 3 || d.Depth < 1 || d.Depth > 3 {
		t.Fatalf("depths %+v, chosen %d", d.Depths, d.Depth)
	}
	for k, dp := range d.Depths {
		if dp.Seconds < d.Depths[d.Depth-1].Seconds || (dp.Seconds == d.Depths[d.Depth-1].Seconds && k+1 < d.Depth) {
			t.Errorf("depth %d priced %v, but depth %d (%v) was chosen", k+1, dp.Seconds, d.Depth, d.Depths[d.Depth-1].Seconds)
		}
	}
	// Unfused, round 0 reads 2 elements past each run and stages b and c
	// each pull 2 a side of their parent: 2+2 per interior strip, 2 at the
	// two file ends, all on the other server's strips.
	if one := d.Depths[0]; one.FetchBytes != 8*(2+4+4+2) || one.ExchangeBytes != 2*8*(2+4+4+2) {
		t.Errorf("depth 1 fetch %d exchange %d, want 96 and 192", one.FetchBytes, one.ExchangeBytes)
	}
	// Fused whole, round 0 reads 6 past each run: beyond the neighbour
	// lies a strip of the run's own server, so 4 of the 6 are fetched
	// (clamped at the file ends), and nothing is exchanged.
	if all := d.Depths[2]; all.FetchBytes != 8*(4+4+4+4+4+4) || all.ExchangeBytes != 0 {
		t.Errorf("depth 3 fetch %d exchange %d, want 192 and 0", all.FetchBytes, all.ExchangeBytes)
	}
	if chosen := d.Depths[d.Depth-1]; d.FetchBytes != chosen.FetchBytes || d.ExchangeBytes != chosen.ExchangeBytes {
		t.Errorf("decision moves %d/%d, its depth %d/%d", d.FetchBytes, d.ExchangeBytes, chosen.FetchBytes, chosen.ExchangeBytes)
	}
	if d.Stages != 4 || d.FusedStages != d.Depth {
		t.Fatalf("stages = %d fused = %d, want 4 and %d (the prefix mates and the zero-reach reduce)", d.Stages, d.FusedStages, d.Depth)
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
	if x := d.Explain(); !strings.Contains(x, "fusion depth 3") || !strings.Contains(x, "(chosen)") {
		t.Errorf("Explain does not list the priced depths:\n%s", x)
	}
}

// Under a replicated layout the input halo is already local and per-pass
// offload pays replica writeback per intermediate, so the pipeline's
// margin widens.
func TestDecidePipelineReplicatedLayoutDiscountsPrefix(t *testing.T) {
	p := Params{ElemSize: 8, StripSize: 32, FileSize: 256, Width: 4, OutputFactor: 1}
	lay := layout.NewGroupedReplicated(2, 2, 1) // halo = 1 strip = 4 elems
	d, err := Estimate(chainSpec(), p, lay, Observations{})
	if err != nil {
		t.Fatal(err)
	}
	// Two stages fused read 4 past each run: the replicated strip.
	if two := d.Depths[1]; two.FetchBytes != 0 || two.ExchangeBytes != 3*2*2*8 {
		t.Fatalf("depth 2 fetch %d exchange %d, want 0 and 96: only stage c exchanges, across three cuts",
			two.FetchBytes, two.ExchangeBytes)
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

	cold, err := Estimate(chainSpec(), p, lay, Observations{})
	if err != nil {
		t.Fatal(err)
	}
	if want := cold.OutputReplicaBytes + cold.FetchBytes + cold.ExchangeBytes; cold.OffloadNetBytes != want {
		t.Fatalf("offload bytes = %d, want exactly the moving bytes plus replicas = %d", cold.OffloadNetBytes, want)
	}
	if warm.OffloadNetBytes != cold.OffloadNetBytes-cold.FetchBytes || warm.HitDiscountBytes != cold.FetchBytes {
		t.Fatalf("full hits took %d off %d: want the whole fetch, %d", cold.OffloadNetBytes-warm.OffloadNetBytes,
			cold.OffloadNetBytes, cold.FetchBytes)
	}
}

func TestDecidePipelineValidation(t *testing.T) {
	p := pipeParams()
	lay := layout.NewRoundRobin(2)
	if _, err := Estimate(PipelineSpec{}, p, lay, Observations{}); err == nil {
		t.Error("empty spec accepted")
	}
	spec := chainSpec()
	spec.Depths = nil
	if _, err := Estimate(spec, p, lay, Observations{}); err == nil {
		t.Error("spec with no depth accepted")
	}
	spec = chainSpec()
	spec.Depths = append(spec.Depths, spec.Depths...)
	if _, err := Estimate(spec, p, lay, Observations{}); err == nil {
		t.Error("more depths than stages accepted")
	}
	spec = chainSpec()
	spec.Depths[1] = nil
	if _, err := Estimate(spec, p, lay, Observations{}); err == nil {
		t.Error("depth with no rounds accepted")
	}
	spec = chainSpec()
	spec.Platform.Net.BytesPerSec = 0
	if _, err := Estimate(spec, p, lay, Observations{}); err == nil {
		t.Error("platform without a network rate accepted")
	}
}

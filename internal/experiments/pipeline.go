package experiments

import (
	"fmt"

	"github.com/hpcio/das/internal/core"
	"github.com/hpcio/das/internal/kernels"
)

// PipelineDAG is the experiment's operator graph: the terrain chain the
// paper's evaluation kernels compose naturally into — smooth, route,
// accumulate — closed by a statistics reduction. Four stages, three
// intermediate rasters the per-pass reference writes back and the
// pushdown never materializes.
func PipelineDAG() kernels.DAG {
	return kernels.Chain("terrain4",
		[]string{"gaussian-filter", "flow-routing", "flow-accumulation"}, "stats")
}

// pipelineVariants are the (scheme × execution mode) cells, in table order.
var pipelineVariants = []struct {
	name    string
	scheme  core.Scheme
	perPass bool
}{
	{"nas-per-pass", core.NAS, true},
	{"nas-pipelined", core.NAS, false},
	{"das-per-pass", core.DAS, true},
	{"das-pipelined", core.DAS, false},
}

// dagCell runs the pipeline DAG over terrain under one scheme: NAS over
// round-robin, DAS over the layout planned for the chain's first kernel.
// The pushdown is forced; the per-pass path decides stage by stage.
func (c Config) dagCell(scheme core.Scheme, perPass bool) Scenario {
	s := c.Cell(scheme, "", c.SizesGB[0], c.Nodes)
	s.DAG = PipelineDAG()
	s.Steps = []Step{{Kind: DAGRun, Scheme: scheme, PerPass: perPass, Force: !perPass}}
	return s
}

// pipelineExperiment runs the kernel-DAG pushdown comparison: the
// four-stage terrain DAG executed per-pass (every intermediate raster
// written back and re-read) and pipelined (inter-stage traffic reduced
// to halo-boundary bands) under both NAS round-robin and DAS-planned
// placement, plus a crash-and-restart run of the DAS pushdown on the
// mirrored layout, where every strip keeps a live copy throughout: the
// server dies halfway through and returns shortly after with its
// in-memory pipeline state gone, so the client must redispatch its strips
// and the servers must catch lost lineage up from the durable input.
// Every run's grid output is verified bitwise against the sequential
// in-memory reference; the pipelined DAS run must move strictly fewer
// total bytes than its per-pass twin; every cell runs twice and the
// records must be byte-identical.
var pipelineExperiment = Experiment{
	ID:       "pipeline",
	Replayed: true,
	Scenarios: func(c Config) []Scenario {
		var cells []Scenario
		for _, v := range pipelineVariants {
			cells = append(cells, c.dagCell(v.scheme, v.perPass))
		}
		healthy := c.mirrored(c.dagCell(core.DAS, false))
		return append(cells, healthy, crashMidRun(healthy, true))
	},
	Claims: func(c Config, recs []Record) (*Result, error) {
		r := &Result{
			ID:     "pipeline",
			Title:  fmt.Sprintf("Kernel-DAG pushdown vs per-pass (%s, %d GB)", PipelineDAG().Name, c.SizesGB[0]),
			XLabel: "variant",
			YLabel: "execution time (s) / interconnect MB",
		}
		for i, v := range pipelineVariants {
			step := recs[i].Steps[0]
			if step.Offloaded == v.perPass {
				return nil, fmt.Errorf("pipeline %s: Pipelined=%v with perPass=%v", v.name, step.Offloaded, v.perPass)
			}
			x, mb := float64(i+1), float64(step.Moved())/1e6
			r.Add("exec s: "+v.name, x, step.SimSeconds)
			r.Add("interconnect MB: "+v.name, x, mb)
			note := fmt.Sprintf("%s: %.4fs, %.2f MB moved", v.name, step.SimSeconds, mb)
			if !v.perPass {
				st := step.Stats
				note += fmt.Sprintf("; %d/%d stages fused, %d rounds, halo %d B vs composed-offset bound %d B (ratio %.3f)",
					st.Int("fused_stages"), st.Int("stages"), st.Int("rounds"),
					st.Int("achieved_halo_bytes"), st.Int("lower_bound_bytes"), st["lower_bound_ratio"])
			}
			r.Notes = append(r.Notes, note)
		}
		// The headline claim: the pushdown's whole point is removing the
		// intermediate writeback, so under the same DAS placement it must
		// move strictly fewer bytes than the per-pass reference.
		if piped, per := recs[3].Steps[0].Moved(), recs[2].Steps[0].Moved(); piped >= per {
			return nil, fmt.Errorf("pipeline: pushdown moved %d bytes, per-pass %d — pushdown must move strictly fewer", piped, per)
		}
		// Round-robin grants no local halo, so the NAS pushdown's achieved
		// traffic is directly comparable to the unreplicated-placement
		// bound. (The DAS-planned layout prepays halos through replication
		// at ingest and may legitimately undercut it.)
		if rr := recs[1].Steps[0].Stats; rr.Int("achieved_halo_bytes") < rr.Int("lower_bound_bytes") {
			return nil, fmt.Errorf("pipeline: round-robin achieved halo bytes %d below the composed-offset bound %d",
				rr.Int("achieved_halo_bytes"), rr.Int("lower_bound_bytes"))
		}
		crashed := recs[len(recs)-1].Steps[0]
		if !crashed.Offloaded {
			return nil, fmt.Errorf("pipeline fault run: crashed run fell back to per-pass: %s", crashed.DegradedReason)
		}
		redispatches, catchUps := crashed.Stats.Int("redispatches"), crashed.Stats.Int("catch_ups")
		if redispatches+catchUps == 0 {
			return nil, fmt.Errorf("pipeline fault run: the crash triggered no recovery — the fault never bit")
		}
		r.Notes = append(r.Notes,
			fmt.Sprintf("fault run: crash+restart mid-pushdown, %d redispatches, %d catch-ups, output still bitwise-identical",
				redispatches, catchUps),
			"all grid outputs verified bitwise against the sequential DAG reference",
			"report byte-identical across two full replays")
		return r, nil
	},
}

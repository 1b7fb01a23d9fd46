package experiments

import (
	"fmt"
	"strings"

	"github.com/hpcio/das/internal/active"
	"github.com/hpcio/das/internal/cluster"
	"github.com/hpcio/das/internal/core"
	"github.com/hpcio/das/internal/grid"
	"github.com/hpcio/das/internal/kernels"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/predict"
)

var allSchemes = []core.Scheme{core.NAS, core.DAS, core.TS}

// ablationGroupSize sweeps the replication group size r for DAS
// (flow-routing, smallest dataset): smaller r buys nothing once locality
// holds but pays replication traffic and capacity (2·halo/r), larger r
// amortizes it. Capacity overhead is reported as a second series.
var ablationGroupSize = Experiment{
	ID: "ablation-group-size",
	Scenarios: func(c Config) []Scenario {
		var cells []Scenario
		for mult := 1; mult <= 16; mult *= 2 {
			s := c.Cell(core.DAS, "flow-routing", c.SizesGB[0], c.Nodes)
			s.Place = Placement{Kind: Grouped, R: c.halo() * mult, Halo: c.halo()}
			cells = append(cells, s)
		}
		return cells
	},
	Claims: func(c Config, recs []Record) (*Result, error) {
		r := &Result{
			ID:     "ablation-group-size",
			Title:  "DAS replication group size r (flow-routing)",
			XLabel: "group size r",
			YLabel: "execution time (s) / capacity overhead",
		}
		halo := c.halo()
		for i, rec := range recs {
			rr := halo << i
			r.Add("das_exec_seconds", float64(rr), rec.Seconds())
			r.Add("capacity_overhead", float64(rr), layout.OverheadRatio(layout.NewGroupedReplicated(c.Nodes/2, rr, halo)))
		}
		r.Notes = append(r.Notes, fmt.Sprintf("halo = %d strips at width %d; overhead = 2·halo/r (§III-D)", halo, c.Width))
		return r, nil
	},
}

// hostileStride is a pattern no round-robin placement serves locally.
func hostileStride(c Config) kernels.ScatterKernel {
	elemsPerStrip := c.StripSize / grid.ElemSize
	return kernels.ScatterKernel{
		OpName:  "hostile-stride",
		Strides: []int64{elemsPerStrip, 2 * elemsPerStrip, 3 * elemsPerStrip},
		W:       1,
	}
}

// ablationPredictor pits the prediction core against a hostile stride
// pattern that no round-robin placement serves locally: DAS (predicts,
// rejects, serves as TS) versus DAS with prediction disabled (blind
// offload, as NAS would) versus plain TS.
var ablationPredictor = curve("ablation-predictor",
	Result{
		Title:  "Value of the offload decision on a hostile stride pattern",
		XLabel: "variant",
		YLabel: "execution time (s)",
	},
	func(c Config) []point {
		var pts []point
		for i, v := range []struct {
			label string
			step  Step
		}{
			{"das_predicted", Step{Scheme: core.DAS}},
			{"das_blind_offload", Step{Scheme: core.DAS, Force: true}},
			{"ts", Step{Scheme: core.TS}},
		} {
			s := c.input("hostile-stride", c.SizesGB[0], c.Nodes)
			s.Scatter = hostileStride(c)
			s.Steps = []Step{v.step}
			pts = append(pts, point{v.label, float64(i), s})
		}
		return pts
	},
	func(c Config, recs []Record, r *Result) error {
		for _, st := range hostileStride(c).Strides {
			if predict.Eq17(st, grid.ElemSize, c.StripSize, 1, c.Nodes/2) {
				return fmt.Errorf("ablation: stride %d accidentally aligned; pick another", st)
			}
		}
		if recs[0].Steps[0].Offloaded {
			r.Notes = append(r.Notes, "WARNING: predictor accepted the hostile pattern")
		}
		r.Notes = append(r.Notes, "das_predicted must track ts; das_blind_offload pays the dependence traffic")
		return nil
	})

// ablationReconfig compares write-time placement against migrate-in-place
// for DAS: (a) input pre-placed in the improved layout, (b) input placed
// round-robin and migrated by the workflow's reconfiguration step, with
// the migration cost charged to the run, then (c) the successor operation
// after reconfiguration, which runs at pre-placed speed — the
// amortization the paper's successive-operation argument relies on.
var ablationReconfig = Experiment{
	ID: "ablation-reconfig",
	Scenarios: func(c Config) []Scenario {
		migrated := c.input("gaussian-filter", c.SizesGB[0], c.Nodes)
		migrated.Steps = []Step{{Scheme: core.DAS, Reconfigure: true}, {Scheme: core.DAS, Input: "output.0"}}
		return []Scenario{c.Cell(core.DAS, "gaussian-filter", c.SizesGB[0], c.Nodes), migrated}
	},
	Claims: func(_ Config, recs []Record) (*Result, error) {
		r := &Result{
			ID:     "ablation-reconfig",
			Title:  "Layout reconfiguration cost and amortization (gaussian)",
			XLabel: "variant",
			YLabel: "execution time (s)",
		}
		first, successor := recs[1].Steps[0], recs[1].Steps[1]
		r.Add("preplaced", 0, recs[0].Seconds())
		r.Add("reconfigured_first_op", 1, first.SimSeconds)
		r.Add("reconfig_cost_alone", 2, first.Stats["reconfig_seconds"])
		r.Add("successor_op", 3, successor.SimSeconds)
		r.Notes = append(r.Notes,
			"successor_op pays no migration: DAS writes intermediates under the improved layout")
		return r, nil
	},
}

// ablationHaloFetch compares dependent-data transports on the same
// round-robin placement: the paper's NAS (whole strips), an optimized NAS
// that fetches only the needed rows, and DAS with local replicas.
var ablationHaloFetch = curve("ablation-halo-fetch",
	Result{
		Title:  "Dependent-data transport (flow-routing)",
		XLabel: "variant",
		YLabel: "execution time (s)",
	},
	func(c Config) []point {
		rows := c.Cell(core.NAS, "flow-routing", c.SizesGB[0], c.Nodes)
		rows.Steps[0].FetchMode = active.FetchRows
		return []point{
			{"nas_whole_strips", 0, c.Cell(core.NAS, "flow-routing", c.SizesGB[0], c.Nodes)},
			{"nas_row_fetch", 1, rows},
			{"das_local_replicas", 2, c.Cell(core.DAS, "flow-routing", c.SizesGB[0], c.Nodes)},
		}
	},
	func(_ Config, _ []Record, r *Result) error {
		r.Notes = append(r.Notes, "row fetches shrink NAS traffic but DAS still wins: locality beats any transport")
		return nil
	})

// multiTenantFleet is the number of concurrent jobs in the multi-tenant
// ablation.
const multiTenantFleet = 4

// ablationMultiTenant runs a fleet of four concurrent flow-routing jobs on
// four different rasters under each scheme and compares makespans: the
// multi-application situation a shared HEC I/O system actually faces. DAS
// jobs leave the interconnect nearly idle, so a DAS fleet degrades far
// less under self-contention than TS or NAS fleets.
var ablationMultiTenant = Experiment{
	ID: "ablation-multitenant",
	Scenarios: func(c Config) []Scenario {
		var cells []Scenario
		for _, scheme := range allSchemes {
			s := c.Cell(scheme, "flow-routing", c.SizesGB[0], c.Nodes)
			s.Copies = multiTenantFleet
			s.Steps = []Step{{Kind: Fleet, Scheme: scheme}}
			cells = append(cells, s)
		}
		return cells
	},
	Claims: func(c Config, recs []Record) (*Result, error) {
		r := &Result{
			ID:     "ablation-multitenant",
			Title:  "Four concurrent jobs per scheme (flow-routing)",
			XLabel: "scheme",
			YLabel: "makespan / mean job time (s)",
		}
		for si, scheme := range allSchemes {
			fleet := recs[si].Steps[0]
			var sum float64
			for i := 0; i < multiTenantFleet; i++ {
				sum += fleet.Stats[fmt.Sprintf("job_seconds.%d", i)]
			}
			r.Add(scheme.String()+"_makespan", float64(si), fleet.SimSeconds)
			r.Add(scheme.String()+"_mean_job", float64(si), sum/multiTenantFleet)
		}
		r.Notes = append(r.Notes, fmt.Sprintf("%d concurrent flow-routing jobs, %d GB each, %d nodes", multiTenantFleet, c.SizesGB[0], c.Nodes))
		return r, nil
	},
}

// collocatedCell is a Cell on N dual-role nodes instead of N/2 + N/2.
func (c Config) collocatedCell(scheme core.Scheme, size int) Scenario {
	s := c.Cell(scheme, "flow-routing", size, c.Nodes)
	s.Collocated = true
	return s
}

// ablationDeployment compares the paper's two deployment models (§III-A)
// at equal total hardware: N/2 compute + N/2 storage nodes (separated,
// the model the paper evaluates) versus N dual-role nodes (collocated,
// the MapReduce-style model it mentions). Collocation gives TS free
// node-local reads and doubles the number of active storage servers, but
// the dependence-aware layout decides the ranking in both. The largest
// configured size keeps whole replication groups balanced across the
// doubled server count of the collocated variant.
var ablationDeployment = curve("ablation-deployment",
	Result{
		Title:  "Separated vs collocated deployment (flow-routing)",
		XLabel: "scheme",
		YLabel: "execution time (s)",
	},
	func(c Config) []point {
		var pts []point
		size := c.SizesGB[len(c.SizesGB)-1]
		for si, scheme := range allSchemes {
			pts = append(pts,
				point{scheme.String() + "_separated", float64(si), c.Cell(scheme, "flow-routing", size, c.Nodes)},
				point{scheme.String() + "_collocated", float64(si), c.collocatedCell(scheme, size)})
		}
		return pts
	},
	func(c Config, _ []Record, r *Result) error {
		r.Notes = append(r.Notes, fmt.Sprintf(
			"both variants use %d physical nodes; collocated makes each node both compute and storage", c.Nodes))
		return nil
	})

var computeCostsNs = []float64{25, 50, 100, 200, 400, 800}

// ablationComputeIntensity sweeps the per-element kernel cost: active
// storage is a bandwidth play, so DAS's advantage over TS is largest when
// the operation is I/O-bound and shrinks as computation dominates — the
// regime where both schemes wait on the same CPUs. The sweep locates that
// transition for the default platform.
var ablationComputeIntensity = Experiment{
	ID: "ablation-compute-intensity",
	Scenarios: func(c Config) []Scenario {
		var cells []Scenario
		for _, ns := range computeCostsNs {
			for _, scheme := range []core.Scheme{core.DAS, core.TS} {
				s := c.Cell(scheme, "flow-routing", c.SizesGB[0], c.Nodes)
				if ns != cluster.Default().ComputeNsPerElem {
					s.ComputeNsPerElem = ns
				}
				cells = append(cells, s)
			}
		}
		return cells
	},
	Claims: func(_ Config, recs []Record) (*Result, error) {
		r := &Result{
			ID:     "ablation-compute-intensity",
			Title:  "DAS advantage vs per-element compute cost (flow-routing)",
			XLabel: "ns per element",
			YLabel: "execution time (s) / speedup",
		}
		for i, ns := range computeCostsNs {
			das, ts := recs[2*i].Seconds(), recs[2*i+1].Seconds()
			r.Add("das_seconds", ns, das)
			r.Add("ts_seconds", ns, ts)
			r.Add("ts_over_das", ns, ts/das)
		}
		r.Notes = append(r.Notes,
			"speedup falls toward 1 as compute dominates: offloading saves bandwidth, not cycles")
		return r, nil
	},
}

// ablationStripSize sweeps the PFS strip size, which enters every
// placement equation: smaller strips mean more strip boundaries (more NAS
// fetches, larger DAS halos in strip count), larger strips amortize
// boundaries but coarsen placement. The paper's 64 KiB default sits in
// the flat part of the DAS curve. The largest size keeps at least one
// replication group per server even at the coarsest strip setting.
var ablationStripSize = curve("ablation-strip-size",
	Result{
		Title:  "Strip size sweep (flow-routing)",
		XLabel: "strip KiB",
		YLabel: "execution time (s)",
	},
	func(c Config) []point {
		var pts []point
		for _, kib := range []int64{16, 32, 64, 128, 256} {
			c.StripSize = kib << 10
			for _, scheme := range allSchemes {
				pts = append(pts, point{scheme.String(), float64(kib), c.Cell(scheme, "flow-routing", c.SizesGB[len(c.SizesGB)-1], c.Nodes)})
			}
		}
		return pts
	},
	func(_ Config, _ []Record, r *Result) error {
		r.Notes = append(r.Notes, "64 KiB is the PVFS2 default the paper quotes (§III-C)")
		return nil
	})

// ablationMapReduce tests the paper's §II-C claim — that DAS "is more
// effective than MapReduce in HPC environments" — by running the same
// stencil kernel three ways on one collocated platform (MapReduce's
// native deployment): a Hadoop-style map/shuffle/reduce with materialized
// intermediates and replicated output over the DFS-style round-robin
// placement, DAS, and TS.
var ablationMapReduce = Experiment{
	ID: "ablation-mapreduce",
	Scenarios: func(c Config) []Scenario {
		size := c.SizesGB[len(c.SizesGB)-1]
		job := c.collocatedCell(core.NAS, size)
		job.Steps = []Step{{Kind: MapReduce}}
		return []Scenario{job, c.collocatedCell(core.DAS, size), c.collocatedCell(core.TS, size), c.collocatedCell(core.NAS, size)}
	},
	Claims: func(_ Config, recs []Record) (*Result, error) {
		r := &Result{
			ID:     "ablation-mapreduce",
			Title:  "MapReduce comparator (flow-routing, collocated deployment)",
			XLabel: "variant",
			YLabel: "execution time (s)",
		}
		job := recs[0].Steps[0]
		r.Add("mapreduce", 0, job.SimSeconds)
		r.Add("mapreduce_map_s", 1, job.Stats["map_seconds"])
		r.Add("mapreduce_reduce_s", 2, job.Stats["reduce_seconds"])
		for i, scheme := range []core.Scheme{core.DAS, core.TS, core.NAS} {
			r.Add(strings.ToLower(scheme.String()), float64(3+i), recs[1+i].Seconds())
		}
		lands := "it lands between NAS and TS"
		if nas := recs[3]; job.SimSeconds > nas.Seconds() {
			lands = "behind its barrier it overlaps none of it with compute, as a NAS server does, and lands behind NAS"
		}
		r.Notes = append(r.Notes,
			"MapReduce pays intermediate materialization, a map barrier, and replicated output; DAS pipelines local reads into local writes",
			"with strip-wide dependence reach MapReduce shuffles like NAS fetches; "+lands)
		return r, nil
	},
}

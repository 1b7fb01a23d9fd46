// Package experiments regenerates the paper's evaluation (§IV): one
// runnable experiment per table and figure, each producing the same rows
// or series the paper reports, plus the ablations DESIGN.md calls out and
// the fault and adaptive-stack experiments. An Experiment is a table of
// Scenario values — each a cell of the evaluation written down as data —
// and a claims function over their Records; Config.Run (runner.go) is the
// one place a cell's platform is built, run, verified and recorded.
//
// Scale: the paper ran 24–60 GB datasets on a 24–60 node cluster; this
// reproduction maps 1 paper-GB to 1 simulated MiB and scales nothing else.
// Every scheme's cost is linear in bytes moved, so the scaling preserves
// every ratio and crossover while keeping a full sweep under a minute.
package experiments

import (
	"fmt"
	"reflect"
	"sort"
	"strings"

	"github.com/hpcio/das/internal/core"
	"github.com/hpcio/das/internal/grid"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/tenants"
)

// BytesPerPaperGB is the simulated stand-in for one of the paper's
// gigabytes.
const BytesPerPaperGB = 1 << 20

// Config parameterizes a sweep. The defaults mirror §IV-A: 24 nodes with
// a 1:1 storage:compute split, 24–60 GB data, 64 KiB strips.
type Config struct {
	// Nodes is the default total node count (half storage, half compute).
	Nodes int
	// SizesGB are the paper-scale dataset sizes to sweep.
	SizesGB []int
	// NodeSweep are the total node counts for the scalability experiment.
	NodeSweep []int
	// Width is the raster width in elements. The default of 8192 makes
	// one row exactly one 64 KiB strip, the geometry of the paper's
	// Fig. 4.
	Width int
	// StripSize is the PFS strip size.
	StripSize int64
	// Seed feeds the workload generators.
	Seed uint64
	// CacheRounds, RestripeRounds and P99Rounds are the rounds per variant
	// of the repeated-workload experiments.
	CacheRounds, RestripeRounds, P99Rounds int
	// Tenants sizes the multi-tenant experiment.
	Tenants tenants.Config

	// session, set by Default and Quick, makes Run remember the cells it
	// has run; copies of the Config share it.
	session *session
}

// Default returns the paper-mirroring configuration.
func Default() Config {
	return Config{
		Nodes:          24,
		SizesGB:        []int{24, 36, 48, 60},
		NodeSweep:      []int{24, 36, 48, 60},
		Width:          8192,
		StripSize:      64 * 1024,
		Seed:           42,
		CacheRounds:    3,
		RestripeRounds: 3,
		P99Rounds:      8,
		Tenants:        DefaultTenantsConfig(),
		session:        &session{records: make(map[string]Record)},
	}
}

// Quick returns the one reduced configuration — smoke runs, CI, tests and
// `go test -short` benchmarks all use it: the same geometry and cost
// model, smaller datasets, fewer nodes, rounds and tenant streams. All
// shape assertions (orderings, ratios) are scale-free. 8 → 16 nodes
// doubles the servers with exact group divisibility at these sizes, so the
// per-server critical path genuinely halves.
func Quick() Config {
	c := Default()
	c.Nodes = 8
	c.SizesGB = []int{2, 4}
	c.NodeSweep = []int{8, 16}
	c.CacheRounds, c.RestripeRounds, c.P99Rounds = 2, 2, 7
	c.Tenants = SmokeTenantsConfig()
	return c
}

// Kernels evaluated by the paper's figures, in its naming.
var paperKernels = []struct {
	op    string
	label string
}{
	{"flow-routing", "flow_routing"},
	{"flow-accumulation", "flow_accumulation"},
	{"gaussian-filter", "gaussian"},
}

// input is a scenario over the Config's raster geometry with nothing
// placed, deployed or run yet.
func (c Config) input(op string, sizeGB, nodes int) Scenario {
	return Scenario{
		Nodes: nodes, SizeGB: sizeGB, Width: c.Width, StripSize: c.StripSize, Seed: c.Seed,
		Op: op, Image: imageFor(op),
	}
}

// Cell is the evaluation's unit: one operator under one scheme at one data
// size and node count, on a fresh platform. Inputs are pre-placed as each
// scheme expects: round-robin for TS and NAS, the DAS-planned improved
// layout for DAS (write-time arrangement; the reconfiguration ablation
// measures the migrate-in-place alternative).
func (c Config) Cell(scheme core.Scheme, op string, sizeGB, nodes int) Scenario {
	s := c.input(op, sizeGB, nodes)
	if scheme == core.DAS {
		s.Place.Kind = Planned
	}
	s.Steps = []Step{{Scheme: scheme}}
	return s
}

// halo is the boundary-strip count the 8-neighbour pattern needs at the
// Config's geometry; grouped(r=halo, halo) is the fully mirrored layout
// every strip survives one crash under.
func (c Config) halo() int {
	probe := layout.NewLocator(grid.ElemSize, c.StripSize, layout.NewRoundRobin(1))
	return probe.RequiredHalo(int64(c.Width) + 1)
}

// Experiment is one table or figure of the evaluation: the scenarios it
// reads and the claims it makes of their records.
type Experiment struct {
	ID string
	// Scenarios lists the cells in run order.
	Scenarios func(Config) []Scenario
	// Replayed experiments run every cell a second time on a fresh platform
	// and fail unless the two records are equal.
	Replayed bool
	// Claims turns the records (in Scenarios order) into the printed rows
	// and notes, and fails when a claim the experiment exists to show —
	// a decision flipped, a controller went quiet — does not hold.
	Claims func(Config, []Record) (*Result, error)
	// Margins, when set, are the claims Claims enforces, each as a margin
	// over the records (in Scenarios order): what a seed sweep reads.
	Margins func(Config, []Record) []Margin
}

// Margin is one claim an experiment makes of its records and the amount
// by which it holds, negative when it fails.
type Margin struct {
	Claim string
	Unit  string
	Value float64
	Holds bool
}

// Experiments lists every experiment: the paper's figures, the ablations
// in DESIGN.md order, then the fault and adaptive-stack experiments.
func Experiments() []Experiment {
	return []Experiment{
		fig10, fig11, fig12, fig13, fig14,
		ablationGroupSize, ablationPredictor, ablationReconfig, ablationHaloFetch, ablationMultiTenant,
		ablationDeployment, ablationComputeIntensity, ablationStripSize, ablationMapReduce,
		faultsExperiment, cacheExperiment, restripeExperiment, p99Experiment, pipelineExperiment, tenantsExperiment,
	}
}

// Select resolves an -exp style name: one experiment's ID, "ablations",
// or "all".
func Select(name string) ([]Experiment, error) {
	var out []Experiment
	var ids []string
	for _, e := range Experiments() {
		ids = append(ids, e.ID)
		if name == "all" || name == e.ID || name == "ablations" && strings.HasPrefix(e.ID, "ablation-") {
			out = append(out, e)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("unknown experiment %q (valid: all, ablations, tableI, %s)", name, strings.Join(ids, ", "))
	}
	return out, nil
}

// Execute runs the experiment's scenarios — each distinct cell once per
// Config — and returns its result and records.
func (c Config) Execute(e Experiment) (*Result, []Record, error) {
	cells := e.Scenarios(c)
	recs := make([]Record, len(cells))
	for i, s := range cells {
		rec, err := c.Run(s)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", e.ID, err)
		}
		recs[i] = rec
	}
	if e.Replayed {
		for i, s := range cells {
			again, err := c.RunLive(s, nil, nil)
			if err != nil {
				return nil, nil, fmt.Errorf("%s replay: %w", e.ID, err)
			}
			if !reflect.DeepEqual(recs[i], again) {
				return nil, nil, fmt.Errorf("%s: replay of %q diverged — the run is not deterministic", e.ID, s.Name())
			}
		}
	}
	r, err := e.Claims(c, recs)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", e.ID, err)
	}
	return r, recs, nil
}

// Row is one measured cell of a result series.
type Row struct {
	Series string
	X      float64
	Value  float64
}

// Result is one regenerated table or figure.
type Result struct {
	ID     string // "fig10", "tableI", ...
	Title  string
	XLabel string
	YLabel string
	Rows   []Row
	Notes  []string
}

// Add appends a measurement.
func (r *Result) Add(series string, x, value float64) {
	r.Rows = append(r.Rows, Row{Series: series, X: x, Value: value})
}

// Value looks up a cell.
func (r *Result) Value(series string, x float64) (float64, bool) {
	for _, row := range r.Rows {
		if row.Series == series && row.X == x {
			return row.Value, true
		}
	}
	return 0, false
}

// Series lists distinct series names in first-appearance order.
func (r *Result) Series() []string {
	var out []string
	seen := make(map[string]bool)
	for _, row := range r.Rows {
		if !seen[row.Series] {
			seen[row.Series] = true
			out = append(out, row.Series)
		}
	}
	return out
}

// Xs lists distinct x values in ascending order.
func (r *Result) Xs() []float64 {
	seen := make(map[float64]bool)
	var out []float64
	for _, row := range r.Rows {
		if !seen[row.X] {
			seen[row.X] = true
			out = append(out, row.X)
		}
	}
	sort.Float64s(out)
	return out
}

// Table renders the result as an aligned text table: one row per x value,
// one column per series, followed by the notes.
func (r *Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", strings.ToUpper(r.ID), r.Title)
	series := r.Series()
	headers := append([]string{r.XLabel}, series...)
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	xs := r.Xs()
	cells := make([][]string, len(xs))
	for i, x := range xs {
		cells[i] = make([]string, len(headers))
		cells[i][0] = trimFloat(x)
		for j, s := range series {
			if v, ok := r.Value(s, x); ok {
				cells[i][j+1] = fmt.Sprintf("%.4f", v)
			} else {
				cells[i][j+1] = "-"
			}
		}
		for j, cell := range cells[i] {
			if len(cell) > widths[j] {
				widths[j] = len(cell)
			}
		}
	}
	writeRow := func(cols []string) {
		for j, cell := range cols {
			if j > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[j], cell)
		}
		b.WriteString("\n")
	}
	writeRow(headers)
	for _, row := range cells {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func trimFloat(x float64) string {
	s := fmt.Sprintf("%.2f", x)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}

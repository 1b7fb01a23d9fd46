package experiments

import (
	"fmt"
	"strings"

	"github.com/hpcio/das/internal/core"
	"github.com/hpcio/das/internal/kernels"
)

// TableI reproduces Table I: the data analysis kernels and their roles.
// It is descriptive rather than measured, so it renders directly from the
// kernel registry.
func TableI() string {
	var b strings.Builder
	b.WriteString("TABLE I — Description of Data Analysis Kernels\n")
	reg := kernels.Default()
	for _, name := range []string{"flow-routing", "flow-accumulation", "gaussian-filter"} {
		k, _ := reg.Lookup(name)
		fmt.Fprintf(&b, "%-18s  %s\n", k.Name(), k.Description())
	}
	return b.String()
}

// point is one plotted value: a cell's first-step time, under a series, at
// an x position.
type point struct {
	series string
	x      float64
	cell   Scenario
}

// curve is the experiment whose every row is one cell's execution time:
// head titles it, points lists the cells, and finish (optional) derives
// notes and normalizations from the plotted rows and the records behind
// them.
func curve(id string, head Result, points func(Config) []point, finish func(Config, []Record, *Result) error) Experiment {
	return Experiment{
		ID: id,
		Scenarios: func(c Config) []Scenario {
			var cells []Scenario
			for _, p := range points(c) {
				cells = append(cells, p.cell)
			}
			return cells
		},
		Claims: func(c Config, recs []Record) (*Result, error) {
			r := head
			r.ID = id
			for i, p := range points(c) {
				r.Add(p.series, p.x, recs[i].Seconds())
			}
			if finish != nil {
				if err := finish(c, recs, &r); err != nil {
					return nil, err
				}
			}
			return &r, nil
		},
	}
}

// sizeSweep lists the paper kernels × the configured sizes × schemes on
// the default platform, series "<kernel>_<scheme>" over data size: the
// grid Figs. 10 and 12 plot, and Fig. 14 takes its flow-routing column of.
func sizeSweep(c Config, schemes ...core.Scheme) []point {
	var pts []point
	for _, k := range paperKernels {
		for _, size := range c.SizesGB {
			for _, scheme := range schemes {
				pts = append(pts, point{fmt.Sprintf("%s_%s", k.label, scheme), float64(size), c.Cell(scheme, k.op, size, c.Nodes)})
			}
		}
	}
	return pts
}

// fig10 reproduces Fig. 10: execution time of the three kernels under NAS
// and TS as the data size grows, on the default 24-node platform. The
// paper's point: ignoring data dependence makes active storage *slower*
// than traditional storage.
var fig10 = curve("fig10",
	Result{
		Title:  "Performance impact of data dependence (NAS vs TS)",
		XLabel: "data size (GB)",
		YLabel: "execution time (s)",
	},
	func(c Config) []point { return sizeSweep(c, core.NAS, core.TS) },
	func(c Config, _ []Record, r *Result) error {
		r.Notes = append(r.Notes, ratioNote(r, c, "NAS", "TS"))
		return nil
	})

// fig11 reproduces Fig. 11: execution time of each scheme on the 24 GB
// dataset, 24 nodes. The paper reports DAS over 30% faster than TS and
// over 60% faster than NAS.
var fig11 = curve("fig11",
	Result{XLabel: "kernel", YLabel: "execution time (s)"},
	func(c Config) []point {
		var pts []point
		for ki, k := range paperKernels {
			for _, scheme := range allSchemes {
				pts = append(pts, point{scheme.String(), float64(ki), c.Cell(scheme, k.op, c.SizesGB[0], c.Nodes)})
			}
		}
		return pts
	},
	func(c Config, _ []Record, r *Result) error {
		r.Title = fmt.Sprintf("Execution time of each scheme (%d GB, %d nodes)", c.SizesGB[0], c.Nodes)
		for ki, k := range paperKernels {
			r.Notes = append(r.Notes, fmt.Sprintf("x=%d is %s", ki, k.label))
		}
		for ki, k := range paperKernels {
			das, _ := r.Value("DAS", float64(ki))
			ts, _ := r.Value("TS", float64(ki))
			nas, _ := r.Value("NAS", float64(ki))
			r.Notes = append(r.Notes, fmt.Sprintf(
				"%s: DAS improves %.0f%% over TS, %.0f%% over NAS (paper: >30%%, >60%%)",
				k.label, 100*(1-das/ts), 100*(1-das/nas)))
		}
		return nil
	})

// fig12 reproduces Fig. 12: execution time of all three schemes as the
// data size grows from 24 to 60 GB. DAS is expected to show the smallest
// growth.
var fig12 = curve("fig12",
	Result{
		Title:  "Scalability with varied data set size",
		XLabel: "data size (GB)",
		YLabel: "execution time (s)",
	},
	func(c Config) []point { return sizeSweep(c, core.NAS, core.DAS, core.TS) },
	func(c Config, _ []Record, r *Result) error {
		r.Notes = append(r.Notes, growthNote(r, c))
		return nil
	})

// fig13 reproduces Fig. 13: execution time of DAS and TS with the node
// count growing from 24 to 60 at the largest data size. Both schemes are
// expected to scale.
var fig13 = curve("fig13",
	Result{
		Title:  "Scalability with varied number of nodes",
		XLabel: "nodes",
		YLabel: "execution time (s)",
	},
	func(c Config) []point {
		var pts []point
		size := c.SizesGB[len(c.SizesGB)-1]
		for _, k := range paperKernels {
			for _, nodes := range c.NodeSweep {
				for _, scheme := range []core.Scheme{core.DAS, core.TS} {
					pts = append(pts, point{fmt.Sprintf("%s_%s", k.label, scheme), float64(nodes), c.Cell(scheme, k.op, size, nodes)})
				}
			}
		}
		return pts
	}, nil)

// fig14 reproduces Fig. 14: sustained bandwidth of the flow-routing
// operation under each scheme, normalized to TS. Sustained bandwidth is
// the dataset size over the operation's execution time.
var fig14 = curve("fig14",
	Result{
		Title:  "Normalized sustained bandwidth (flow-routing)",
		XLabel: "data size (GB)",
		YLabel: "bandwidth normalized to TS",
	},
	func(c Config) []point {
		var pts []point
		for _, size := range c.SizesGB {
			for _, scheme := range allSchemes {
				pts = append(pts, point{scheme.String(), float64(size), c.Cell(scheme, "flow-routing", size, c.Nodes)})
			}
		}
		return pts
	},
	func(_ Config, _ []Record, r *Result) error {
		// bandwidth ∝ size/time; normalized to TS the size cancels. TS is
		// each size's last row, so it still holds its time when read.
		for i := range r.Rows {
			ts, _ := r.Value("TS", r.Rows[i].X)
			r.Rows[i].Value = ts / r.Rows[i].Value
		}
		return nil
	})

// ratioNote summarizes how much slower series suffixed a run than b,
// averaged across kernels and sizes.
func ratioNote(r *Result, c Config, a, b string) string {
	var sum float64
	var n int
	for _, k := range paperKernels {
		for _, size := range c.SizesGB {
			va, oka := r.Value(fmt.Sprintf("%s_%s", k.label, a), float64(size))
			vb, okb := r.Value(fmt.Sprintf("%s_%s", k.label, b), float64(size))
			if oka && okb && vb > 0 {
				sum += va / vb
				n++
			}
		}
	}
	if n == 0 {
		return "no data"
	}
	return fmt.Sprintf("%s averages %.2fx the execution time of %s (paper: NAS well above TS)", a, sum/float64(n), b)
}

// growthNote reports the average relative execution-time growth per size
// step for each scheme.
func growthNote(r *Result, c Config) string {
	var parts []string
	for _, scheme := range allSchemes {
		var sum float64
		var n int
		for _, k := range paperKernels {
			series := fmt.Sprintf("%s_%s", k.label, scheme)
			for i := 1; i < len(c.SizesGB); i++ {
				prev, okp := r.Value(series, float64(c.SizesGB[i-1]))
				cur, okc := r.Value(series, float64(c.SizesGB[i]))
				if okp && okc && prev > 0 {
					sum += cur/prev - 1
					n++
				}
			}
		}
		if n > 0 {
			parts = append(parts, fmt.Sprintf("%s +%.0f%%", scheme, 100*sum/float64(n)))
		}
	}
	return "mean growth per +12GB step: " + strings.Join(parts, ", ") + " (paper: DAS ≈ +15%, others ≈ +30%)"
}

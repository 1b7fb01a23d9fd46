// Command dasbench regenerates the paper's evaluation: every figure and
// table of §IV plus the ablations described in DESIGN.md. By default it
// runs the paper-mirroring configuration (24–60 GB datasets scaled 1 GB →
// 1 MiB, 24–60 nodes); -quick runs a reduced sweep for smoke tests.
//
// Usage:
//
//	dasbench                  # everything, text tables
//	dasbench -exp fig12       # one experiment
//	dasbench -exp ablations   # the four ablations
//	dasbench -csv             # machine-readable output
//	dasbench -quick           # reduced sizes/nodes
//	dasbench -json BENCH_kernels.json   # kernel/scheme micro-benchmarks + recovery counters
//	dasbench -cache                     # halo-strip cache experiment, text table
//	dasbench -cache -json BENCH_cache.json   # same, JSON report
//	dasbench -restripe                  # online-restriping experiment, text table
//	dasbench -restripe -json BENCH_restripe.json   # same, JSON report
//	dasbench -p99                       # unified p99 controller experiment
//	dasbench -p99 -json BENCH_p99.json  # same, JSON report
//	dasbench -tenants                   # multi-tenant skewed-stream experiment
//	dasbench -tenants -json BENCH_tenants.json  # same, JSON report
//	dasbench -tenants -smoke            # reduced stream count for CI
//	dasbench -pipeline                  # kernel-DAG pushdown vs per-pass experiment
//	dasbench -pipeline -json BENCH_pipeline.json  # same, JSON report
//	dasbench -pipeline -smoke           # reduced dataset for CI
//	dasbench -cpuprofile cpu.out -exp fig11   # profile a run
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"github.com/hpcio/das/internal/cache"
	"github.com/hpcio/das/internal/cli"
	"github.com/hpcio/das/internal/control"
	"github.com/hpcio/das/internal/experiments"
	"github.com/hpcio/das/internal/restripe"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: all, tableI, fig10, fig11, fig12, fig13, fig14, faults, cache, restripe, p99, ablations")
	faults := flag.Bool("faults", false, "run the storage-server fault/failover comparison (shorthand for -exp faults)")
	cacheExp := flag.Bool("cache", false, "run the halo-strip cache experiment (shorthand for -exp cache; with -json, writes the cache report instead of micro-benchmarks)")
	cacheRounds := flag.Int("cache-rounds", 3, "rounds per variant in the cache experiment")
	restripeExp := flag.Bool("restripe", false, "run the online-restriping experiment (shorthand for -exp restripe; with -json, writes the restripe report instead of micro-benchmarks)")
	restripeRounds := flag.Int("restripe-rounds", 3, "rounds per variant in the restripe experiment")
	p99Exp := flag.Bool("p99", false, "run the unified p99 controller experiment (shorthand for -exp p99; with -json, writes the p99 report instead of micro-benchmarks)")
	p99Rounds := flag.Int("p99-rounds", 8, "rounds per variant in the p99 controller experiment")
	scaleExp := flag.Bool("scale", false, "run the engine-scaling sweep (24-5000 nodes: wall-clock, events/s, allocations; points with a recorded golden are checked against it); writes BENCH_scale.json unless -json names another file")
	tenantsExp := flag.Bool("tenants", false, "run the multi-tenant skewed-stream experiment (admission control, fairness, adaptive stack); with -json, writes the tenants report")
	pipelineExp := flag.Bool("pipeline", false, "run the kernel-DAG pushdown experiment (per-pass vs pipelined under NAS and DAS); with -json, writes the pipeline report")
	smoke := flag.Bool("smoke", false, "with -scale, -tenants, or -pipeline: reduced configuration for CI smoke runs")
	csv := flag.Bool("csv", false, "emit CSV instead of text tables")
	chart := flag.Bool("chart", false, "append an ASCII bar chart to each table")
	quick := flag.Bool("quick", false, "reduced sweep (2-4 GB, 8-16 nodes) for smoke testing")
	nodes := flag.Int("nodes", 0, "override the default node count")
	benchJSONPath := flag.String("json", "", "run kernel/scheme micro-benchmarks and write JSON results to this file (e.g. BENCH_kernels.json)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	flag.Parse()

	if err := checkExclusive(*exp, *faults, *cacheExp, *restripeExp, *p99Exp, *scaleExp, *tenantsExp, *pipelineExp, *smoke); err != nil {
		fmt.Fprintln(os.Stderr, "dasbench:", err)
		os.Exit(1)
	}

	cfg := experiments.Default()
	if *quick {
		cfg.Nodes = 8
		cfg.SizesGB = []int{2, 4}
		cfg.NodeSweep = []int{8, 16}
	}
	if *nodes != 0 {
		cfg.Nodes = *nodes
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dasbench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "dasbench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	err := func() error {
		if *scaleExp {
			path := *benchJSONPath
			if path == "" && !*smoke {
				path = "BENCH_scale.json"
			}
			return scaleSweep(path, *smoke)
		}
		if *tenantsExp {
			return tenantsRun(cfg, *smoke, *benchJSONPath, *csv, *chart)
		}
		if *pipelineExp {
			return pipelineRun(cfg, *smoke, *benchJSONPath, *csv, *chart)
		}
		if *benchJSONPath != "" {
			if *cacheExp {
				return cacheJSON(cfg, *cacheRounds, *benchJSONPath)
			}
			if *restripeExp {
				return restripeJSON(cfg, *restripeRounds, *benchJSONPath)
			}
			if *p99Exp {
				return p99JSON(cfg, *p99Rounds, *benchJSONPath)
			}
			return benchJSON(cfg, *benchJSONPath)
		}
		name := strings.ToLower(*exp)
		if *faults {
			name = "faults"
		}
		if *cacheExp {
			name = "cache"
		}
		if *restripeExp {
			name = "restripe"
		}
		if *p99Exp {
			name = "p99"
		}
		return run(cfg, name, *cacheRounds, *restripeRounds, *p99Rounds, *csv, *chart)
	}()

	if *memprofile != "" {
		f, ferr := os.Create(*memprofile)
		if ferr == nil {
			runtime.GC() // flush recent allocation stats into the profile
			ferr = pprof.Lookup("allocs").WriteTo(f, 0)
			f.Close()
		}
		if ferr != nil && err == nil {
			err = ferr
		}
	}

	if err != nil {
		fmt.Fprintln(os.Stderr, "dasbench:", err)
		if *cpuprofile != "" {
			pprof.StopCPUProfile()
		}
		os.Exit(1)
	}
}

// checkExclusive rejects flag combinations that would otherwise be
// silently ignored: each report mode owns the whole run, so modes
// exclude each other and a named -exp, and -smoke only modifies the
// modes that define a reduced configuration.
func checkExclusive(exp string, faults, cacheExp, restripeExp, p99Exp, scaleExp, tenantsExp, pipelineExp, smoke bool) error {
	if err := cli.CheckExclusive(
		[]cli.Flag{
			{Name: "-faults", Set: faults},
			{Name: "-cache", Set: cacheExp},
			{Name: "-restripe", Set: restripeExp},
			{Name: "-p99", Set: p99Exp},
			{Name: "-scale", Set: scaleExp},
			{Name: "-tenants", Set: tenantsExp},
			{Name: "-pipeline", Set: pipelineExp},
		},
		[]cli.Flag{{Name: "-exp", Set: exp != "" && strings.ToLower(exp) != "all"}},
	); err != nil {
		return err
	}
	if smoke && !scaleExp && !tenantsExp && !pipelineExp {
		return fmt.Errorf("-smoke applies only to -scale, -tenants, or -pipeline")
	}
	return nil
}

func run(cfg experiments.Config, exp string, cacheRounds, restripeRounds, p99Rounds int, csv, chart bool) error {
	emit := func(r *experiments.Result) {
		if csv {
			fmt.Printf("# %s\n%s\n", r.ID, r.CSV())
			return
		}
		fmt.Println(r.Table())
		if chart {
			fmt.Println(r.Chart(48))
		}
	}
	single := map[string]func() (*experiments.Result, error){
		"fig10":  cfg.Fig10,
		"fig11":  cfg.Fig11,
		"fig12":  cfg.Fig12,
		"fig13":  cfg.Fig13,
		"fig14":  cfg.Fig14,
		"faults": cfg.FaultFailover,
		"cache": func() (*experiments.Result, error) {
			r, _, err := cfg.CacheExperiment(cacheRounds, cache.Config{})
			return r, err
		},
		"restripe": func() (*experiments.Result, error) {
			r, _, err := cfg.RestripeExperiment(restripeRounds, restripe.Config{})
			return r, err
		},
		"p99": func() (*experiments.Result, error) {
			r, _, err := cfg.P99Experiment(p99Rounds, control.Config{})
			return r, err
		},
		"ablation-group-size":        cfg.AblationGroupSize,
		"ablation-predictor":         cfg.AblationPredictor,
		"ablation-reconfig":          cfg.AblationReconfig,
		"ablation-halo-fetch":        cfg.AblationHaloFetch,
		"ablation-multitenant":       cfg.AblationMultiTenant,
		"ablation-deployment":        cfg.AblationDeployment,
		"ablation-compute-intensity": cfg.AblationComputeIntensity,
		"ablation-strip-size":        cfg.AblationStripSize,
		"ablation-mapreduce":         cfg.AblationMapReduce,
	}
	switch exp {
	case "tablei":
		fmt.Println(experiments.TableI())
		return nil
	case "ablations":
		results, err := cfg.Ablations()
		if err != nil {
			return err
		}
		for _, r := range results {
			emit(r)
		}
		return nil
	case "all":
		fmt.Println(experiments.TableI())
		results, err := cfg.All()
		if err != nil {
			return err
		}
		for _, r := range results {
			emit(r)
		}
		results, err = cfg.Ablations()
		if err != nil {
			return err
		}
		for _, r := range results {
			emit(r)
		}
		return nil
	default:
		f, ok := single[exp]
		if !ok {
			return fmt.Errorf("unknown experiment %q", exp)
		}
		r, err := f()
		if err != nil {
			return err
		}
		emit(r)
		return nil
	}
}

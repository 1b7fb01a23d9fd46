// Command dasctl inspects DAS data distributions: given a file and system
// geometry it prints the strip→server placement under the round-robin,
// grouped, and grouped-replicated policies, the replica sets, capacity
// overhead, and the dependent-strip fetch plan an active storage server
// would execute for a named operator.
//
// Usage:
//
//	dasctl -servers 12 -strips 24                        # placement maps
//	dasctl -servers 12 -op flow-routing -width 8192 \
//	       -size 25165824                                # fetch plan summary
//	dasctl -servers 4 -faults crash@10ms:s1              # crash coverage
//	dasctl -servers 4 -cache -rounds 3                   # halo-strip cache stats
//	dasctl -servers 4 -restripe -rounds 4                # online-restripe migration report
//	dasctl -servers 4 -control                           # unified p99 controller report
//	dasctl -servers 4 -tenants -streams 64               # multi-tenant fairness report
//	dasctl -kernels                                      # operator registry listing
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/hpcio/das/internal/cli"
	"github.com/hpcio/das/internal/fault"
	"github.com/hpcio/das/internal/grid"
	"github.com/hpcio/das/internal/kernels"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/predict"
)

func main() {
	servers := flag.Int("servers", 4, "number of storage servers (D)")
	strips := flag.Int64("strips", 16, "strips to display in placement maps")
	groupSize := flag.Int("r", 4, "strips per group for the improved distribution")
	halo := flag.Int("halo", 1, "boundary strips replicated per group side")
	stripSize := flag.Int64("strip-size", 64*1024, "strip size in bytes")
	op := flag.String("op", "", "operator whose fetch plan to analyze (e.g. flow-routing)")
	width := flag.Int("width", 8192, "raster width in elements")
	size := flag.Int64("size", 0, "file size in bytes (required with -op)")
	faults := flag.String("faults", "",
		"fault plan to analyze, e.g. 'crash@10ms:s1,restart@60ms:s1,loss@0:0.05' — reports which strips survive the servers the plan leaves down")
	cacheDemo := flag.Bool("cache", false,
		"run a short offloaded workload with the halo-strip cache enabled and report per-server cache stats")
	restripeDemo := flag.Bool("restripe", false,
		"run a short offloaded workload with online restriping enabled and report the migration's progress and throttle behaviour")
	controlDemo := flag.Bool("control", false,
		"run a short offloaded workload under the unified p99 latency controller and report its sketches, sample accounting, and tuning actions")
	rounds := flag.Int("rounds", 0, "offloaded rounds for -cache, -restripe (default 3) or -control (default 4)")
	tenantsDemo := flag.Bool("tenants", false,
		"replay a small multi-tenant Zipf workload under admission control and report per-tenant fairness, queue tails, and file heat")
	streams := flag.Int("streams", 48, "concurrent client streams for -tenants")
	kernelsList := flag.Bool("kernels", false,
		"list every registered operator (kernels, combiners, reducers) with dependence offsets and per-element weights")
	flag.Parse()
	given := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { given[f.Name] = true })

	err := checkExclusive(*op, *faults, *cacheDemo, *restripeDemo, *controlDemo, *tenantsDemo, *kernelsList,
		given["streams"], given["rounds"])
	if err == nil {
		switch {
		case *kernelsList:
			err = kernelsReport(os.Stdout)
		case *cacheDemo:
			err = cacheReport(os.Stdout, *servers, *rounds)
		case *restripeDemo:
			err = restripeReport(os.Stdout, *servers, *rounds)
		case *controlDemo:
			err = controlReport(os.Stdout, *servers, *rounds)
		case *tenantsDemo:
			err = tenantsReport(os.Stdout, *servers, *streams)
		default:
			err = run(os.Stdout, *servers, *strips, *groupSize, *halo, *stripSize, *op, *width, *size, *faults)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dasctl:", err)
		os.Exit(1)
	}
}

// checkExclusive rejects flag combinations that would otherwise be
// silently ignored: -cache, -restripe, -control, -tenants, and -kernels
// each produce their own report and compose with neither the fetch-plan
// (-op) nor the fault-coverage (-faults) analyses, nor with each other;
// and -streams and -rounds, when given, need the report that reads them.
func checkExclusive(op, faultSpec string, cacheDemo, restripeDemo, controlDemo, tenantsDemo, kernelsList bool,
	streamsGiven, roundsGiven bool) error {
	if err := cli.CheckExclusive(
		[]cli.Flag{
			{Name: "-cache", Set: cacheDemo},
			{Name: "-restripe", Set: restripeDemo},
			{Name: "-control", Set: controlDemo},
			{Name: "-tenants", Set: tenantsDemo},
			{Name: "-kernels", Set: kernelsList},
		},
		[]cli.Flag{{Name: "-op", Set: op != ""}, {Name: "-faults", Set: faultSpec != ""}},
	); err != nil {
		return err
	}
	switch {
	case streamsGiven && !tenantsDemo:
		return fmt.Errorf("-streams applies only to -tenants")
	case roundsGiven && !cacheDemo && !restripeDemo && !controlDemo:
		return fmt.Errorf("-rounds applies only to -cache, -restripe, or -control")
	}
	return nil
}

func run(w io.Writer, servers int, strips int64, r, halo int, stripSize int64, op string, width int, size int64, faultSpec string) error {
	if servers <= 0 || strips <= 0 {
		return fmt.Errorf("servers and strips must be positive")
	}
	layouts := []layout.Layout{
		layout.NewRoundRobin(servers),
		layout.NewGrouped(servers, r),
		layout.NewGroupedReplicated(servers, r, halo),
	}
	for _, lay := range layouts {
		fmt.Fprintf(w, "%s  (capacity overhead %.2f)\n", lay.Name(), layout.OverheadRatio(lay))
		for s := int64(0); s < strips; s++ {
			var reps []int
			for holders, i := lay.Holders(s), 1; i < holders.Len(); i++ {
				reps = append(reps, holders.At(i))
			}
			if len(reps) == 0 {
				fmt.Fprintf(w, "  strip %3d → server %d\n", s, lay.Primary(s))
			} else {
				fmt.Fprintf(w, "  strip %3d → server %d  (replicas %v)\n", s, lay.Primary(s), reps)
			}
		}
		fmt.Fprintln(w)
	}

	var down func(srv int) bool
	if faultSpec != "" {
		plan, err := fault.ParsePlan(faultSpec)
		if err != nil {
			return err
		}
		if err := plan.Validate(servers); err != nil {
			return err
		}
		fmt.Fprintf(w, "fault plan: %s\n", plan.String())
		// End-state liveness: a crash the plan never undoes leaves the
		// server down for good.
		downSet := make(map[int]bool)
		for _, ev := range plan.Sorted() {
			switch ev.Kind {
			case fault.Crash:
				downSet[ev.Server] = true
			case fault.Restart:
				delete(downSet, ev.Server)
			}
		}
		down = func(srv int) bool { return downSet[srv] }
		if len(downSet) == 0 {
			fmt.Fprintln(w, "no server stays down; every strip keeps its primary")
		} else {
			for _, lay := range layouts {
				var lost []int64
				for s := int64(0); s < strips; s++ {
					holders, live := lay.Holders(s), false
					for i := 0; i < holders.Len(); i++ {
						live = live || !downSet[holders.At(i)]
					}
					if !live {
						lost = append(lost, s)
					}
				}
				if len(lost) == 0 {
					fmt.Fprintf(w, "%-40s all %d strips still have a live copy\n", lay.Name(), strips)
				} else {
					fmt.Fprintf(w, "%-40s %d/%d strips with NO live copy: %v\n", lay.Name(), len(lost), strips, lost)
				}
			}
		}
		fmt.Fprintln(w)
	}

	if op == "" {
		return nil
	}
	if size <= 0 {
		return fmt.Errorf("-op requires -size")
	}
	k, ok := kernels.Default().Lookup(op)
	if !ok {
		return fmt.Errorf("unknown operator %q (known: %v)", op, kernels.Default().Names())
	}
	pat := kernels.Pattern(k)
	fmt.Fprintf(w, "operator %s, dependence record:\n%s\n", op, pat.String())

	params := predict.Params{
		ElemSize: grid.ElemSize, StripSize: stripSize, FileSize: size,
		Width: width, OutputFactor: 1,
	}
	for _, lay := range layouts {
		d, err := predict.Estimate(predict.Kernel(pat), params, lay, predict.Observations{Down: down})
		if err != nil {
			return err
		}
		fmt.Fprint(w, d.Explain())
	}
	rec, ok, err := predict.RecommendLayout(pat, params, servers, predict.DefaultMaxOverhead)
	if err != nil {
		return err
	}
	if ok {
		fmt.Fprintf(w, "recommended: %s (overhead %.2f)\n", rec.Name(), layout.OverheadRatio(rec))
	} else {
		fmt.Fprintln(w, "recommended: keep round-robin (pattern has no dependence)")
	}
	return nil
}

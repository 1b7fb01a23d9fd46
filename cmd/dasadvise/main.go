// Command dasadvise is the offline face of the DAS prediction core: given
// an operator's dependence pattern — either a built-in kernel name or a
// kernel-features description file (§III-B format) — and the system
// geometry, it reports whether the request should be offloaded, the
// predicted bandwidth cost of both choices, and the data distribution DAS
// would arrange.
//
// Usage:
//
//	dasadvise -op flow-routing -servers 12 -size-gb 24
//	dasadvise -features my-kernels.txt -servers 12 -size-gb 24
//	dasadvise -stride 8192 -servers 12 -size-gb 24     # ad-hoc ±stride
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/hpcio/das/internal/features"
	"github.com/hpcio/das/internal/grid"
	"github.com/hpcio/das/internal/kernels"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/predict"
)

var (
	op        = flag.String("op", "", "built-in operator name (flow-routing, flow-accumulation, gaussian-filter, median-filter)")
	featFile  = flag.String("features", "", "kernel-features description file to analyze (all records)")
	stride    = flag.Int64("stride", 0, "ad-hoc ±stride pattern in elements")
	servers   = flag.Int("servers", 12, "number of storage servers (D)")
	width     = flag.Int("width", 8192, "raster width in elements")
	stripSize = flag.Int64("strip-size", 64*1024, "strip size in bytes")
	sizeGB    = flag.Int64("size-gb", 24, "file size in simulated GB (1 GB = 1 MiB at reproduction scale)")
	overhead  = flag.Float64("max-overhead", predict.DefaultMaxOverhead, "replication capacity budget (2·halo/r)")
)

func main() {
	flag.Parse()

	pats, err := patterns(*op, *featFile, *stride)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dasadvise:", err)
		os.Exit(1)
	}
	params := predict.Params{
		ElemSize:     grid.ElemSize,
		StripSize:    *stripSize,
		FileSize:     *sizeGB << 20,
		Width:        *width,
		OutputFactor: 1,
	}
	for _, pat := range pats {
		if err := advise(pat, params, *servers, *overhead); err != nil {
			fmt.Fprintln(os.Stderr, "dasadvise:", err)
			os.Exit(1)
		}
	}
}

func patterns(op, featFile string, stride int64) ([]features.Pattern, error) {
	switch {
	case featFile != "":
		f, err := os.Open(featFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		// §III-B allows both plain-text and XML databases; pick by suffix.
		if strings.HasSuffix(featFile, ".xml") {
			return features.ParseXML(f)
		}
		return features.Parse(f)
	case op != "":
		k, ok := kernels.Default().Lookup(op)
		if !ok {
			return nil, fmt.Errorf("unknown operator %q (known: %v)", op, kernels.Default().Names())
		}
		return []features.Pattern{kernels.Pattern(k)}, nil
	case stride != 0:
		return []features.Pattern{{Name: fmt.Sprintf("stride-%d", stride), Offsets: features.Stride(stride)}}, nil
	default:
		return nil, fmt.Errorf("one of -op, -features, or -stride is required")
	}
}

func advise(pat features.Pattern, params predict.Params, nServers int, maxOverhead float64) error {
	fmt.Printf("=== %s ===\n", pat.Name)
	fmt.Print(pat.String())
	fmt.Printf("max reach: %d elements at width %d\n\n", pat.MaxAbsOffset(params.Width), params.Width)

	rr := layout.NewRoundRobin(nServers)
	d, err := predict.Decide(pat, params, rr)
	if err != nil {
		return err
	}
	fmt.Println(d.Explain())

	rec, ok, err := predict.RecommendLayout(pat, params, nServers, maxOverhead)
	if err != nil {
		return err
	}
	if !ok {
		fmt.Println("no layout change needed: pattern has no dependence")
		return nil
	}
	dRec, err := predict.Decide(pat, params, rec)
	if err != nil {
		return err
	}
	fmt.Printf("DAS would arrange %s (capacity overhead %.2f):\n", rec.Name(), layout.OverheadRatio(rec))
	fmt.Println(dRec.Explain())
	return nil
}

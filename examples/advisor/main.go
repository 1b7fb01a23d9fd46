// Advisor: use the bandwidth prediction core standalone, the way the
// paper's Fig. 6 discusses stride dependence. For a sweep of strides the
// program checks the closed-form locality criterion (Eq. (17)), runs the
// full per-element analysis, and prints whether DAS would accept the
// offload under the default round-robin placement — demonstrating that
// "offloadable" is a property of the (pattern, layout) pair, not of the
// operation alone.
package main

import (
	"fmt"

	das "github.com/hpcio/das"
	"github.com/hpcio/das/internal/features"
)

func main() {
	const (
		servers   = 12
		stripSize = das.DefaultStripSize
		width     = 8192
		sizeGB    = 24
	)
	elemsPerStrip := int64(stripSize) / das.ElemSize
	params := das.PredictParams{
		ElemSize:     das.ElemSize,
		StripSize:    stripSize,
		FileSize:     sizeGB << 20,
		Width:        width,
		OutputFactor: 1,
	}
	lay := das.RoundRobin(servers)

	fmt.Printf("round-robin over %d servers, %d KiB strips (%d elements/strip)\n\n",
		servers, stripSize/1024, elemsPerStrip)

	strides := []int64{
		1,                    // within-strip neighbor
		elemsPerStrip,        // exactly one strip
		elemsPerStrip * 3,    // three strips: never aligned
		elemsPerStrip * 12,   // D strips: aligned with round-robin
		elemsPerStrip * 24,   // 2D strips: also aligned
		elemsPerStrip*12 + 1, // one element off alignment
		elemsPerStrip * 6,    // half of D
	}
	for _, stride := range strides {
		pat := features.Pattern{
			Name:    fmt.Sprintf("stride-%d", stride),
			Offsets: features.Stride(stride),
		}
		report(pat, das.Eq17(stride, das.ElemSize, stripSize, 1, servers), params, lay)
	}
	// A multi-offset operator touching six distinct strips per element:
	// the offload traffic (≈6× the file) dwarfs normal I/O (2×) and the
	// prediction core rejects.
	multi := features.Pattern{Name: "multi-stride"}
	for _, k := range []int64{1, 2, 3} {
		multi.Offsets = append(multi.Offsets, features.Stride(k*elemsPerStrip)...)
	}
	report(multi, false, params, lay)

	fmt.Println("Eq. 17 alignment (stride a multiple of D strips) makes every interior")
	fmt.Println("dependence local: what is left to fetch is the first or last strip,")
	fmt.Println("which strips within a stride of either end clamp to. A lone unaligned")
	fmt.Println("±stride costs about what normal I/O costs (the two dependent strips ≈")
	fmt.Println("the raster moved twice), so the verdict sits on the margin; patterns")
	fmt.Println("touching more strips are firmly rejected and need DAS's improved")
	fmt.Println("layout to offload.")
}

func report(pat features.Pattern, aligned bool, params das.PredictParams, lay das.Layout) {
	d, err := das.Decide(pat, params, lay)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("%s (Eq. 17 holds: %v)\n%s\n", pat.Name, aligned, d.Explain())
}

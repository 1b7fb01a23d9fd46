// Command dasseeds reads every seed-sensitive experiment's claims over one
// list of seeds: for each claim, its margin at each seed, then the least
// and the median. A seed moves only what it draws — the tenants'
// streams — so only experiments whose claims carry margins are swept
// (`tenants` today). It reports and does not gate: it exits 0 whether or
// not a claim holds, and 1 only when a run fails.
//
//	go run ./cmd/dasseeds
package main

import (
	"fmt"
	"os"
	"slices"
	"strings"

	"github.com/hpcio/das/internal/experiments"
)

// seeds is the sweep, declared once: never edited to drop a seed at which
// a claim fails.
var seeds = []uint64{1, 2, 3, 4, 5, 6, 7, 8, 42, 99, 1234, 2024}

func main() {
	if err := sweep(); err != nil {
		fmt.Fprintln(os.Stderr, "dasseeds:", err)
		os.Exit(1)
	}
}

func sweep() error {
	for _, e := range experiments.Experiments() {
		if e.Margins == nil {
			continue
		}
		fmt.Printf("%s over %d seeds\n", e.ID, len(seeds))
		var claims []experiments.Margin // the first seed's, naming the columns
		var values [][]float64          // per claim, its margin at each seed
		for _, seed := range seeds {
			c := experiments.Default()
			c.Seed = seed
			var recs []experiments.Record
			for _, s := range e.Scenarios(c) {
				rec, err := c.Run(s)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", e.ID, seed, err)
				}
				recs = append(recs, rec)
			}
			verdict := "holds"
			if _, err := e.Claims(c, recs); err != nil {
				verdict = "FAILS: " + err.Error()
			}
			ms := e.Margins(c, recs)
			if claims == nil {
				claims, values = ms, make([][]float64, len(ms))
				for i, m := range ms {
					fmt.Printf("  margin %d: %s (%s)\n", i+1, m.Claim, m.Unit)
				}
			}
			var cells []string
			for i, m := range ms {
				values[i] = append(values[i], m.Value)
				cells = append(cells, fmt.Sprintf("%.4g", m.Value))
			}
			fmt.Printf("  seed %-5d %s  %s\n", seed, strings.Join(cells, "  "), verdict)
		}
		for i, m := range claims {
			vs := values[i]
			slices.Sort(vs)
			median := (vs[(len(vs)-1)/2] + vs[len(vs)/2]) / 2
			fmt.Printf("  %s (%s): least %.4g, median %.4g\n", m.Claim, m.Unit, vs[0], median)
		}
	}
	return nil
}

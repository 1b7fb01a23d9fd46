package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/hpcio/das/internal/experiments"
)

// The -scale sweep is the instrument for the DES core's host-side cost: it
// runs the engine-scaling workload (internal/experiments.RunScale) on
// clusters from the paper's 24 nodes up to 5000 and records wall-clock,
// events/second, allocations and peak RSS. Every repetition of a point
// must reproduce the same simulation, and a point with a recorded golden
// (experiments.ScaleGolden — the classic engine construction's outputs,
// captured before it was deleted) must match it; any divergence is a
// non-zero exit, so the artifact doubles as a correctness gate.

// scaleSweepNodes is the standard sweep. 24 and 64 bracket the paper's
// testbed; 640 is the acceptance point; 1280 and 5000 probe beyond it.
var scaleSweepNodes = []int{24, 64, 160, 320, 640, 1280, 5000}

const (
	// 1024 ops per client keeps the 640-node acceptance point running for
	// hundreds of milliseconds, long enough that host-clock jitter stays
	// small relative to the measurement.
	scaleOpsPerClient = 1024
	// The 5000-node point trims per-client work to keep the sweep short.
	scaleBigOpsPerClient = 64
	scaleBigNodes        = 5000
	scaleSeed            = 11
	// scaleReps is the best-of-N repetition count per point. Shared-host
	// wall-clock jitters by tens of percent run to run; the minimum of a
	// few runs is the standard scalar for "how fast can this go", and
	// determinism makes repeats free on the simulation side — every
	// repetition must reproduce the same ScaleStats.
	scaleReps = 3
)

// scalePoint is one node count's measurement.
type scalePoint struct {
	Nodes        int     `json:"nodes"`
	OpsPerClient int     `json:"ops_per_client"`
	Ops          int64   `json:"ops"`
	Events       uint64  `json:"events"`
	SimSeconds   float64 `json:"sim_seconds"`
	WallMs       float64 `json:"wall_ms"`
	EventsPerSec float64 `json:"events_per_sec"`
	Allocs       uint64  `json:"allocs"`
	PeakRSSKB    int64   `json:"peak_rss_kb"`
	// GoldenChecked is set when a recorded golden exists for the point; the
	// run then matched it (a mismatch aborts the sweep).
	GoldenChecked bool `json:"golden_checked"`
}

type scaleReport struct {
	GoMaxProcs int          `json:"go_max_procs"`
	NumCPU     int          `json:"num_cpu"`
	Seed       uint64       `json:"seed"`
	Points     []scalePoint `json:"points"`
}

// runScaleBest executes scaleReps measured runs and keeps the fastest.
// Each repetition builds the cluster outside the timer (PrepareScale) and
// times only ScaleRunner.Run — the simulation itself, which is what the
// events/second figure claims to measure. Wall-clock here is legitimate
// measurement (cmd/dasbench is the one place allowed to look at the host
// clock); everything the simulation reports stays virtual.
func runScaleBest(opts experiments.ScaleOptions) (scalePoint, error) {
	var best scalePoint
	var stats experiments.ScaleStats
	for rep := 0; rep < scaleReps; rep++ {
		r, err := experiments.PrepareScale(opts)
		if err != nil {
			return scalePoint{}, err
		}
		runtime.GC()
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		st, err := r.Run()
		wall := time.Since(start)
		if err != nil {
			return scalePoint{}, err
		}
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		if rep > 0 && !st.SameSimulation(stats) {
			return scalePoint{}, fmt.Errorf(
				"scale: %d-node simulation diverged between repetitions:\n rep 0  %+v\n rep %d  %+v",
				opts.Nodes, stats, rep, st)
		}
		stats = st
		if rep == 0 || float64(wall.Nanoseconds())/1e6 < best.WallMs {
			best = scalePoint{
				Nodes:        opts.Nodes,
				OpsPerClient: opts.OpsPerClient,
				Ops:          st.Ops,
				Events:       st.Events,
				SimSeconds:   st.SimTime.Seconds(),
				WallMs:       float64(wall.Nanoseconds()) / 1e6,
				EventsPerSec: float64(st.Events) / wall.Seconds(),
				Allocs:       after.Mallocs - before.Mallocs,
			}
		}
	}
	if golden, ok := experiments.ScaleGolden(opts); ok {
		if !stats.SameSimulation(golden) {
			return scalePoint{}, fmt.Errorf(
				"scale: %d-node simulation diverged from the recorded classic-engine golden:\n got    %+v\n golden %+v",
				opts.Nodes, stats, golden)
		}
		best.GoldenChecked = true
	}
	best.PeakRSSKB = peakRSSKB()
	return best, nil
}

// scaleSweep runs every node count and writes the report.
func scaleSweep(path string, smoke bool) error {
	nodeCounts := scaleSweepNodes
	opsAt := func(n int) int {
		if n >= scaleBigNodes {
			return scaleBigOpsPerClient
		}
		return scaleOpsPerClient
	}
	if smoke {
		// Smoke: the acceptance-point node count with trimmed per-client
		// work — the one point whose golden is recorded, so it must check.
		nodeCounts = []int{640}
		opsAt = func(int) int { return 32 }
	}
	rep := scaleReport{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Seed:       scaleSeed,
	}
	for _, n := range nodeCounts {
		pt, err := runScaleBest(experiments.ScaleOptions{Nodes: n, OpsPerClient: opsAt(n), Seed: scaleSeed})
		if err != nil {
			return err
		}
		if smoke && !pt.GoldenChecked {
			return fmt.Errorf("scale: no golden recorded for the %d-node smoke point", n)
		}
		fmt.Printf("scale %5d nodes: %8.1fms (%.2fM ev/s)  %d events  golden=%v\n",
			n, pt.WallMs, pt.EventsPerSec/1e6, pt.Events, pt.GoldenChecked)
		rep.Points = append(rep.Points, pt)
	}
	if path == "" {
		return nil
	}
	return writeJSON(path, rep)
}

// peakRSSKB reads the process's resident high-water mark (VmHWM) from
// /proc/self/status; 0 on platforms without procfs.
func peakRSSKB() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb
	}
	return 0
}

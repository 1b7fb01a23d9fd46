package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/hpcio/das/internal/active"
	"github.com/hpcio/das/internal/core"
	"github.com/hpcio/das/internal/metrics"
)

// repetition is one pass over a workload on a freshly built platform: the
// stopwatch over its timed region, what the verification found, and the
// deterministic counters the layers exported across the timed region.
type repetition struct {
	id     int
	traced bool
	sp     *spans

	wall       time.Duration
	allocBytes uint64
	profiles   [][]byte // one gzipped CPU profile per timed piece, traced repetitions only

	attempted, failed int64
	simNanos          int64
	movedBytes        int64
	counts            counts
}

// timed runs one piece of the repetition's timed region inside the
// stopwatch. A workload whose timed operations sit on different platforms
// calls it once per operation; the pieces add up. A traced repetition also
// takes a CPU profile of each piece.
func (r *repetition) timed(fn func() error) error {
	// Garbage left by the build and the previous verification would
	// otherwise be collected on the timed region's account.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var prof bytes.Buffer
	if r.traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return err
		}
	}
	start := time.Now()
	err := r.sp.do("core.run", fn)
	r.wall += time.Since(start)
	if r.traced {
		pprof.StopCPUProfile()
		r.profiles = append(r.profiles, prof.Bytes())
	}
	runtime.ReadMemStats(&after)
	r.allocBytes += after.TotalAlloc - before.TotalAlloc
	return err
}

// identity renders everything about the repetition that must repeat
// exactly: two repetitions of one seed are the same simulation or the run
// fails.
func (r *repetition) identity() string {
	var b strings.Builder
	fmt.Fprintf(&b, "attempted=%d failed=%d sim=%d moved=%d", r.attempted, r.failed, r.simNanos, r.movedBytes)
	names := make([]string, 0, len(r.counts.vals))
	for name := range r.counts.vals {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b.WriteString(" " + name + "=" + strconv.FormatFloat(r.counts.vals[name], 'g', -1, 64))
	}
	fmt.Fprintf(&b, " disk=%v", r.counts.diskBusy)
	return b.String()
}

// counts holds one repetition's deterministic counters in raw units
// (bytes, simulated nanoseconds, counts), keyed by the per-layer metric
// they feed; the catalogue's scale converts them for the report.
type counts struct {
	vals map[string]float64
	// diskBusy is the per-storage-server disk busy time, summed over the
	// repetition's platforms: the slowest server sets the makespan, so the
	// report gives the busiest server over the mean.
	diskBusy []float64
}

func (c *counts) add(name string, v float64) {
	if c.vals == nil {
		c.vals = make(map[string]float64)
	}
	c.vals[name] += v
}

func (c *counts) max(name string, v float64) {
	c.add(name, 0)
	if v > c.vals[name] {
		c.vals[name] = v
	}
}

func (c *counts) addTraffic(t map[metrics.TrafficClass]int64) {
	c.add("simnet.c2s_mb", float64(t[metrics.ClientToServer]))
	c.add("simnet.s2c_mb", float64(t[metrics.ServerToClient]))
	c.add("simnet.s2s_mb", float64(t[metrics.ServerToServer]))
	c.add("simdisk.read_mb", float64(t[metrics.DiskRead]))
	c.add("simdisk.write_mb", float64(t[metrics.DiskWrite]))
}

// moved is the interconnect byte count the three simnet classes add up
// to; it must equal the end-to-end moved_mb.
func (c *counts) moved() float64 {
	return c.vals["simnet.c2s_mb"] + c.vals["simnet.s2c_mb"] + c.vals["simnet.s2s_mb"]
}

func (c *counts) addExec(s active.ExecStats) {
	c.add("active.remote_fetches", float64(s.RemoteFetches))
	c.add("active.remote_mb", float64(s.RemoteBytes))
	c.add("active.read_sim_s", float64(s.PhaseMax.LocalRead))
	c.add("active.fetch_sim_s", float64(s.PhaseMax.Fetch))
	c.add("active.compute_sim_s", float64(s.PhaseMax.Compute))
	c.add("active.write_sim_s", float64(s.PhaseMax.Write))
}

// snapshotSystem reads the cumulative state of every counter a deployed
// platform exports; the delta of two snapshots is what the operation
// between them did.
func snapshotSystem(sys *core.System) counts {
	clu := sys.Clu
	var c counts
	c.addTraffic(clu.Traffic.Snapshot())
	c.add("sim.events", float64(clu.Eng.Events()))
	util := clu.UtilizationSnapshot()
	c.diskBusy = make([]float64, len(util.Disk))
	for s := range util.Disk {
		c.add("simnet.egress_busy_sim_s", float64(util.Egress[s]))
		c.add("simnet.ingress_busy_sim_s", float64(util.Ingress[s]))
		c.add("simdisk.busy_sim_s", float64(util.Disk[s]))
		c.diskBusy[s] = float64(util.Disk[s])
		c.add("pfs.ops", float64(sys.FS.Server(s).Requests()))
	}
	c.add("pfs.retries", float64(clu.Recovery.Retries()))
	c.add("pfs.timeouts", float64(clu.Recovery.Timeouts()))
	c.add("pfs.failover_reads", float64(clu.Recovery.FailoverReads()))
	c.add("active.exec_retries", float64(clu.Recovery.ExecRetries()))
	c.add("fault.events", float64(clu.FaultLog.Len()))
	c.add("fault.dropped_messages", float64(clu.Recovery.DroppedMessages()))
	c.add("cache.hit_mb", float64(clu.CacheStats.HitBytes()))
	c.add("cache.miss_bytes", float64(clu.CacheStats.MissBytes()))
	c.add("cache.evictions", float64(clu.CacheStats.Evictions()))
	c.add("restripe.planned", float64(clu.RestripeStats.Planned()))
	c.add("restripe.completed", float64(clu.RestripeStats.Completed()))
	return c
}

// addDelta accumulates what happened between two snapshots of one
// platform.
func (c *counts) addDelta(after, before counts) {
	for name, v := range after.vals {
		c.add(name, v-before.vals[name])
	}
	if c.diskBusy == nil {
		c.diskBusy = make([]float64, len(after.diskBusy))
	}
	for s := range after.diskBusy {
		c.diskBusy[s] += after.diskBusy[s] - before.diskBusy[s]
	}
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
